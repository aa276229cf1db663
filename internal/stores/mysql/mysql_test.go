package mysql

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
	if o.ScaleComp != 1 {
		t.Fatalf("defaults not filled: %+v", o)
	}
}

func TestConnOverheadGrowsWithThreads(t *testing.T) {
	few := Options{ClientThreads: 128}
	many := Options{ClientThreads: 1536}
	few.defaults()
	many.defaults()
	if many.connOverhead() <= few.connOverhead() {
		t.Fatal("per-op connection overhead must grow with total client threads (§6)")
	}
}

func TestShardingBalanced(t *testing.T) {
	_, s := deploy(4, Options{})
	ycsb.Load(s, 40000)
	for i, sh := range s.shards {
		frac := float64(sh.db.Len()) / 40000
		if frac < 0.2 || frac > 0.3 {
			t.Fatalf("shard %d holds %.2f, want ~0.25 (hash-mod shards well)", i, frac)
		}
	}
}

func TestSingleNodeScanHonorsLimit(t *testing.T) {
	e, s := deploy(1, Options{})
	ycsb.Load(s, 10000)
	var lat sim.Time
	e.Go("r", func(p *sim.Proc) {
		start := p.Now()
		recs, err := s.Scan(p, store.Key(0), 50)
		lat = p.Now() - start
		if err != nil || len(recs) != 50 {
			t.Errorf("scan: %d recs, %v", len(recs), err)
		}
	})
	e.Run(0)
	if lat > 5*sim.Millisecond {
		t.Fatalf("1-node scan took %v, want fast LIMIT path", lat)
	}
}

func TestShardedScanPaysTailCost(t *testing.T) {
	e, s := deploy(2, Options{ScaleComp: 100})
	ycsb.Load(s, 20000)
	var lat sim.Time
	e.Go("r", func(p *sim.Proc) {
		start := p.Now()
		recs, err := s.Scan(p, store.Key(0), 50)
		lat = p.Now() - start
		if err != nil || len(recs) != 50 {
			t.Errorf("scan: %d recs, %v", len(recs), err)
		}
	})
	e.Run(0)
	// ~10k rows/shard tail x comp 100 x 40ns = ~40ms/shard x 2 shards.
	if lat < 50*sim.Millisecond {
		t.Fatalf("sharded scan took %v, want expensive tail query (§5.4)", lat)
	}
}

func TestPurgeBacklogGrowsUnderHeavyInserts(t *testing.T) {
	e, s := deploy(1, Options{})
	// Sustained inserts above the purge cap leave a growing backlog: one
	// inserter cannot outrun the cap, so enough of them run concurrently.
	const inserters, burst = 16, 3 * sim.Second
	for w := int64(0); w < inserters; w++ {
		e.Go("w", func(p *sim.Proc) {
			for i := w; p.Now() < burst; i += inserters {
				s.Insert(p, store.Key(i), store.MakeFields(i))
			}
		})
	}
	e.Run(burst)
	if s.shards[0].unpurged < 1000 {
		t.Fatalf("backlog = %d after insert burst with cap %d/s, want growth", s.shards[0].unpurged, purgeCapPerSec)
	}
	// Let the purger drain with no more writes arriving.
	drainFor := sim.Time(s.shards[0].unpurged/purgeCapPerSec+5) * sim.Second
	e.Run(e.Now() + drainFor)
	if s.shards[0].unpurged != 0 {
		t.Fatalf("backlog = %d after drain window, want 0", s.shards[0].unpurged)
	}
}

func TestVersionPenaltySlowsScan(t *testing.T) {
	e, s := deploy(1, Options{})
	ycsb.Load(s, 5000)
	s.shards[0].unpurged = 50000 // simulate purge lag
	var lat sim.Time
	e.Go("r", func(p *sim.Proc) {
		start := p.Now()
		s.Scan(p, store.Key(0), 50)
		lat = p.Now() - start
	})
	e.Run(0)
	if lat < 40*sim.Millisecond {
		t.Fatalf("scan with 50k unpurged versions took %v, want MVCC penalty", lat)
	}
}

func TestBinlogAccounting(t *testing.T) {
	_, with := deploy(1, Options{BinLog: true})
	_, without := deploy(1, Options{BinLog: false})
	ycsb.Load(with, 1000)
	ycsb.Load(without, 1000)
	diff := with.DiskUsage() - without.DiskUsage()
	if diff != 1000*binlogBytesPerRecord {
		t.Fatalf("binlog bytes = %d, want %d", diff, 1000*binlogBytesPerRecord)
	}
}

func TestUpdateRewritesInPlace(t *testing.T) {
	e, s := deploy(1, Options{BinLog: true})
	ycsb.Load(s, 5000)
	tableBytes := s.shards[0].db.DiskBytes()
	binBefore := s.shards[0].binBytes
	var err error
	var backlogPeak int64
	e.Go("u", func(p *sim.Proc) {
		for i := int64(0); i < 500; i++ {
			if uerr := s.Update(p, store.Key(i), store.MakeFields(i)); uerr != nil {
				err = uerr
			}
		}
		// Observed before the background purge thread drains it.
		backlogPeak = s.shards[0].unpurged
	})
	e.Run(0)
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if got := s.shards[0].db.DiskBytes(); got != tableBytes {
		t.Fatalf("updates grew the table %d -> %d bytes; must rewrite in place", tableBytes, got)
	}
	if s.shards[0].binBytes <= binBefore {
		t.Fatal("updates must append to the statement-based binary log")
	}
	if backlogPeak == 0 {
		t.Fatal("updates must grow the MVCC undo backlog")
	}
}

func TestUpdateMissingKeyErrors(t *testing.T) {
	e, s := deploy(1, Options{})
	ycsb.Load(s, 2) // keys 0 and 1
	e.Go("u", func(p *sim.Proc) {
		if err := s.Update(p, store.Key(99999), store.MakeFields(99999)); err != store.ErrNotFound {
			t.Errorf("update of absent key: err = %v, want ErrNotFound", err)
		}
	})
	e.Run(0)
}
