package voldemort

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/ycsb"
)

func deploy(nodes int) (*sim.Engine, *Store) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(nodes).Scale(0.01))
	return e, New(c)
}

func TestPartitionRoutingStable(t *testing.T) {
	_, s := deploy(4)
	for i := int64(0); i < 100; i++ {
		k := store.Key(i)
		if s.serverIndex(k) != s.serverIndex(k) {
			t.Fatal("routing not stable")
		}
	}
}

func TestDataSpreadAcrossNodes(t *testing.T) {
	_, s := deploy(4)
	ycsb.Load(s, 40000)
	for i, sv := range s.nodes {
		frac := float64(sv.db.Len()) / 40000
		if frac < 0.1 || frac > 0.4 {
			t.Fatalf("node %d holds %.2f of records, want roughly even", i, frac)
		}
	}
}

func TestClientPoolLimitsConcurrency(t *testing.T) {
	e, s := deploy(1)
	ycsb.Load(s, 2) // keys 0 and 1
	var last sim.Time
	for i := 0; i < 8; i++ {
		e.Go("c", func(p *sim.Proc) {
			s.Read(p, store.Key(1))
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run(0)
	// 8 reads through the pool of 3 take at least ceil(8/3) = 3 service
	// times.
	if last < 3*readCPU {
		t.Fatalf("8 reads via pool=%d finished at %v, too parallel", clientPoolPerNode, last)
	}
}

func TestReadWriteLatencySymmetric(t *testing.T) {
	e, s := deploy(2)
	ycsb.Load(s, 20000)
	var read, write sim.Time
	e.Go("o", func(p *sim.Proc) {
		start := p.Now()
		s.Read(p, store.Key(100))
		read = p.Now() - start
		start = p.Now()
		s.Insert(p, store.Key(90000), store.MakeFields(90000))
		write = p.Now() - start
	})
	e.Run(0)
	ratio := float64(write) / float64(read)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("write/read = %.2f (%v vs %v), want ~1 (paper: similar latencies)", ratio, write, read)
	}
}

func TestDiskBoundReadsPaySeeks(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterD(1).Scale(0.002))
	s := New(c)
	ycsb.Load(s, 120000) // far exceeds the tiny BDB cache
	var elapsed sim.Time
	e.Go("r", func(p *sim.Proc) {
		start := p.Now()
		for i := int64(0); i < 20; i++ {
			s.Read(p, store.Key(i*1997))
		}
		elapsed = p.Now() - start
	})
	e.Run(0)
	if elapsed < 20*sim.Millisecond {
		t.Fatalf("20 cold reads took %v, want disk-bound latencies (Fig 19)", elapsed)
	}
}

func TestScansRejected(t *testing.T) {
	e, s := deploy(1)
	e.Go("r", func(p *sim.Proc) {
		if _, err := s.Scan(p, "x", 5); err != store.ErrScansUnsupported {
			t.Errorf("scan err = %v", err)
		}
	})
	e.Run(0)
}

func TestDiskUsageGrowsWithLoad(t *testing.T) {
	// DiskUsage ends the load phase, so the empty footprint comes from a
	// deployment of its own.
	_, empty := deploy(1)
	before := empty.DiskUsage()
	_, s := deploy(1)
	ycsb.Load(s, 10000)
	after := s.DiskUsage()
	if after <= before {
		t.Fatal("disk usage did not grow")
	}
	per := float64(after) / 10000
	if per < 450 || per > 650 {
		t.Fatalf("bytes/record = %.0f, want ~550 (Fig 17: 5.5 GB / 10M)", per)
	}
}

func TestUpdateRewritesInPlace(t *testing.T) {
	e, s := deploy(1)
	ycsb.Load(s, 5000)
	diskBefore := s.DiskUsage()
	var err error
	e.Go("u", func(p *sim.Proc) {
		for i := int64(0); i < 500; i++ {
			if uerr := s.Update(p, store.Key(i), store.MakeFields(i)); uerr != nil {
				err = uerr
			}
		}
	})
	e.Run(0)
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if got := s.DiskUsage(); got != diskBefore {
		t.Fatalf("updates grew BDB %d -> %d bytes; must rewrite the leaf in place", diskBefore, got)
	}
}

func TestUpdateLatencyBetweenReadAndReadPlusWrite(t *testing.T) {
	e, s := deploy(1)
	ycsb.Load(s, 5000)
	var read, update sim.Time
	e.Go("o", func(p *sim.Proc) {
		start := p.Now()
		s.Read(p, store.Key(100))
		read = p.Now() - start
		start = p.Now()
		if err := s.Update(p, store.Key(100), store.MakeFields(100)); err != nil {
			t.Errorf("update: %v", err)
		}
		update = p.Now() - start
	})
	e.Run(0)
	if update <= read {
		t.Fatalf("update %v should exceed a bare read %v (RMW pays the leaf rewrite)", update, read)
	}
	if update >= read+sim.Time(float64(writeCPU)*2) {
		t.Fatalf("update %v should stay well under read+2x write (%v + %v)", update, read, writeCPU)
	}
}

func TestUpdateMissingKeyErrors(t *testing.T) {
	e, s := deploy(1)
	ycsb.Load(s, 2) // keys 0 and 1
	e.Go("u", func(p *sim.Proc) {
		if err := s.Update(p, store.Key(99999), store.MakeFields(99999)); err != store.ErrNotFound {
			t.Errorf("update of absent key: err = %v, want ErrNotFound", err)
		}
	})
	e.Run(0)
}
