package hbase

import (
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/ycsb"
)

func deploy(nodes int, opts Options) (*sim.Engine, *Store) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(nodes).Scale(0.01))
	if opts.MemstoreFlushBytes == 0 {
		opts.MemstoreFlushBytes = 64 << 10
	}
	return e, New(c, opts)
}

func TestDefaultsFilled(t *testing.T) {
	var o Options
	o.defaults()
	if o.BatchRecords != 128 || o.MemstoreFlushBytes == 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
	if overhead.PerCell != 120 {
		t.Fatalf("overhead PerCell = %d, want the Fig 17 calibration (120)", overhead.PerCell)
	}
}

func TestRegionSplitsCoverKeySpace(t *testing.T) {
	_, s := deploy(4, Options{})
	if len(s.splits) != 3 {
		t.Fatalf("splits = %d, want nodes-1", len(s.splits))
	}
	counts := make([]int, 4)
	for i := int64(0); i < 40000; i++ {
		counts[s.regionIndex(store.Key(i))]++
	}
	for r, c := range counts {
		frac := float64(c) / 40000
		if frac < 0.15 || frac > 0.35 {
			t.Fatalf("region %d holds %.2f of hashed keys, want ~0.25", r, frac)
		}
	}
}

func TestRegionIndexBoundaries(t *testing.T) {
	_, s := deploy(3, Options{})
	// A key strictly below the first split belongs to region 0.
	if got := s.regionIndex("user" + "000000000000000000000"); got != 0 {
		t.Fatalf("lowest key in region %d, want 0", got)
	}
	// The split key itself starts the next region (region i holds < split).
	if got := s.regionIndex(s.splits[0]); got != 1 {
		t.Fatalf("split key routed to region %d, want 1", got)
	}
	// A key above every split lands in the last region.
	if got := s.regionIndex("user999999999999999999999"); got != 2 {
		t.Fatalf("highest key in region %d, want 2", got)
	}
}

// TestRegionIndexMatchesSearchStrings pins regionIndex to the routing it
// replaced, sort.SearchStrings(splits, key+"\x00"), on the keys where a
// strict and a non-strict comparison could disagree, and checks routing
// allocates nothing.
func TestRegionIndexMatchesSearchStrings(t *testing.T) {
	_, s := deploy(5, Options{})
	keys := []string{"", "u", "user", "user999999999999999999999", store.Key(7)}
	for _, sp := range s.splits {
		keys = append(keys, sp, sp+"\x00", sp+"\x00\x00", sp[:len(sp)-1], sp[:len(sp)/2], sp+"0")
	}
	for _, k := range keys {
		if got, want := s.regionIndex(k), sort.SearchStrings(s.splits, k+"\x00"); got != want {
			t.Errorf("regionIndex(%q) = %d, want %d", k, got, want)
		}
	}
	key := store.Key(42)
	if n := testing.AllocsPerRun(100, func() { s.regionIndex(key) }); n != 0 {
		t.Fatalf("regionIndex allocates %v times, want 0", n)
	}
}

func TestScanCrossesRegionBoundary(t *testing.T) {
	e, s := deploy(4, Options{})
	ycsb.Load(s, 4000)
	// Start the scan just below a split so it must continue into the next
	// region to fill the count.
	start := s.splits[0][:len(s.splits[0])-1] // strictly below split, very close
	e.Go("r", func(p *sim.Proc) {
		recs, err := s.Scan(p, start, 40)
		if err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		if len(recs) != 40 {
			t.Errorf("scan returned %d records, want 40 (should cross regions)", len(recs))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Key <= recs[i-1].Key {
				t.Errorf("scan unordered at %d", i)
			}
		}
	})
	e.Run(0)
}

func TestWriteBufferBatchesRPCs(t *testing.T) {
	e, s := deploy(1, Options{BatchRecords: 10})
	var latencies []sim.Time
	e.Go("w", func(p *sim.Proc) {
		for i := int64(0); i < 30; i++ {
			start := p.Now()
			s.Insert(p, store.Key(i), store.MakeFields(i))
			latencies = append(latencies, p.Now()-start)
		}
	})
	e.Run(0)
	// Most writes are cheap; every 10th pays the flush RPC.
	expensive := 0
	for _, l := range latencies {
		if l > 100*sim.Microsecond {
			expensive++
		}
	}
	if expensive < 2 || expensive > 4 {
		t.Fatalf("%d expensive writes out of 30 with batch=10, want ~3", expensive)
	}
}

func TestDeferredWritesStillReadable(t *testing.T) {
	e, s := deploy(2, Options{})
	e.Go("w", func(p *sim.Proc) {
		for i := int64(0); i < 100; i++ {
			s.Insert(p, store.Key(i), store.MakeFields(i))
		}
		for i := int64(0); i < 100; i += 9 {
			if _, err := s.Read(p, store.Key(i)); err != nil {
				t.Errorf("read %d after buffered write: %v", i, err)
			}
		}
	})
	e.Run(0)
}

func TestAutoFlushDisablesBuffering(t *testing.T) {
	e, s := deploy(1, Options{AutoFlush: true})
	var lat sim.Time
	e.Go("w", func(p *sim.Proc) {
		start := p.Now()
		s.Insert(p, store.Key(1), store.MakeFields(1))
		lat = p.Now() - start
	})
	e.Run(0)
	if lat < 100*sim.Microsecond {
		t.Fatalf("autoflush write %v, want a full RPC every time", lat)
	}
}

func TestDiskUsagePerRecordMatchesFig17(t *testing.T) {
	_, s := deploy(1, Options{MemstoreFlushBytes: 4 << 10})
	const n = 5000
	ycsb.Load(s, n)
	per := float64(s.DiskUsage()) / n
	if per < 700 || per > 800 {
		t.Fatalf("bytes/record = %.0f, want ~750 (Fig 17)", per)
	}
}
