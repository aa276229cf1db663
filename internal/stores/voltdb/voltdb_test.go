package voltdb

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/ycsb"
)

func deploy(nodes int, opts Options) (*sim.Engine, *Store) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(nodes).Scale(0.01))
	return e, New(c, opts)
}

func TestDefaultsFilled(t *testing.T) {
	var o Options
	o.defaults()
	if o.SitesPerHost != 6 {
		t.Fatalf("sites per host = %d, want the paper's 6", o.SitesPerHost)
	}
}

func TestRouteCoversAllSites(t *testing.T) {
	_, s := deploy(2, Options{})
	seen := map[int]bool{}
	for i := int64(0); i < 20000; i++ {
		seen[s.LoadNodes(nil, store.Key(i))[0]] = true
	}
	if len(seen) != 12 {
		t.Fatalf("keys hit %d sites, want all 12 (2 hosts x 6)", len(seen))
	}
}

func TestSingleHostSkipsOrdering(t *testing.T) {
	e1, s1 := deploy(1, Options{})
	ycsb.Load(s1, 2) // keys 0 and 1
	var one sim.Time
	e1.Go("r", func(p *sim.Proc) {
		start := p.Now()
		s1.Read(p, store.Key(1))
		one = p.Now() - start
	})
	e1.Run(0)

	e4, s4 := deploy(4, Options{})
	ycsb.Load(s4, 2) // keys 0 and 1
	var four sim.Time
	e4.Go("r", func(p *sim.Proc) {
		start := p.Now()
		s4.Read(p, store.Key(1))
		four = p.Now() - start
	})
	e4.Run(0)
	if four <= one {
		t.Fatalf("4-host read %v should exceed 1-host %v (global ordering + forwarding)", four, one)
	}
}

func TestSequencerSerializesSyncClients(t *testing.T) {
	e, s := deploy(4, Options{})
	ycsb.Load(s, 100)
	var last sim.Time
	const clients = 32
	for i := 0; i < clients; i++ {
		i := i
		e.Go("c", func(p *sim.Proc) {
			s.Read(p, store.Key(int64(i%100)))
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run(0)
	minSerial := sim.Time(clients) * 4 * orderPerHost // 32 txns through the sequencer
	if last < minSerial {
		t.Fatalf("32 sync txns finished at %v, faster than sequencer allows (%v)", last, minSerial)
	}
}

func TestAsyncClientBypassesSequencer(t *testing.T) {
	run := func(async bool) sim.Time {
		e, s := deploy(4, Options{Async: async})
		ycsb.Load(s, 100)
		var last sim.Time
		for i := 0; i < 32; i++ {
			i := i
			e.Go("c", func(p *sim.Proc) {
				s.Read(p, store.Key(int64(i%100)))
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		e.Run(0)
		return last
	}
	if a, s := run(true), run(false); a >= s {
		t.Fatalf("async makespan %v should beat sync %v", a, s)
	}
}

func TestMultiPartitionScanBlocksAllSites(t *testing.T) {
	e, s := deploy(2, Options{})
	ycsb.Load(s, 1000)
	e.Go("r", func(p *sim.Proc) {
		recs, err := s.Scan(p, store.Key(0), 20)
		if err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		if len(recs) != 20 {
			t.Errorf("scan returned %d", len(recs))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Key <= recs[i-1].Key {
				t.Errorf("scan unordered")
			}
		}
	})
	e.Run(0)
}

func TestInMemoryNoDiskUsage(t *testing.T) {
	_, s := deploy(1, Options{})
	ycsb.Load(s, 1000)
	if s.DiskUsage() != 0 {
		t.Fatal("VoltDB is in-memory; paper excludes it from Fig 17")
	}
}
