package lsm

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sstable"
)

func newTree(e *sim.Engine, flushBytes int64) *Tree {
	n := cluster.New(e, cluster.ClusterM(1)).Nodes[0]
	return New(Config{
		Node:       n,
		FlushBytes: flushBytes,
		Overhead:   sstable.Overhead{PerEntry: 10, PerCell: 20},
		CacheBytes: 1 << 30, // everything cached: memory-bound behaviour
	})
}

func fields(v string) [][]byte { return [][]byte{[]byte(v)} }

func TestPutGetThroughMemtable(t *testing.T) {
	e := sim.NewEngine(1)
	tr := newTree(e, 1<<20)
	e.Go("w", func(p *sim.Proc) {
		tr.Put(p, "k1", fields("v1"))
		v, ok := tr.Get(p, "k1")
		if !ok || string(v.Field(0)) != "v1" {
			t.Errorf("Get(k1) = %v, %v", v, ok)
		}
		if _, ok := tr.Get(p, "nope"); ok {
			t.Error("found absent key")
		}
	})
	e.Run(0)
}

func TestFlushCreatesSSTableAndServesReads(t *testing.T) {
	e := sim.NewEngine(1)
	tr := newTree(e, 500) // tiny: flush after a few records
	e.Go("w", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			tr.Put(p, fmt.Sprintf("key%04d", i), fields("0123456789"))
			p.Sleep(sim.Millisecond)
		}
	})
	e.Run(0)
	if tr.TableCount() == 0 {
		t.Fatal("no SSTable created despite tiny flush threshold")
	}
	// All keys must still be readable after flushes.
	e.Go("r", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			if _, ok := tr.Get(p, fmt.Sprintf("key%04d", i)); !ok {
				t.Errorf("key%04d lost after flush", i)
			}
		}
	})
	e.Run(0)
}

func TestNewestValueWinsAcrossTables(t *testing.T) {
	e := sim.NewEngine(1)
	tr := newTree(e, 400)
	e.Go("w", func(p *sim.Proc) {
		tr.Put(p, "hot", fields("old"))
		for i := 0; i < 40; i++ { // force a flush between versions
			tr.Put(p, fmt.Sprintf("fill%04d", i), fields("0123456789"))
			p.Sleep(sim.Millisecond)
		}
		tr.Put(p, "hot", fields("new"))
		for i := 40; i < 80; i++ {
			tr.Put(p, fmt.Sprintf("fill%04d", i), fields("0123456789"))
			p.Sleep(sim.Millisecond)
		}
	})
	e.Run(0)
	e.Go("r", func(p *sim.Proc) {
		v, ok := tr.Get(p, "hot")
		if !ok || string(v.Field(0)) != "new" {
			t.Errorf("Get(hot) = %q, want new", v.Field(0))
		}
	})
	e.Run(0)
}

func TestScanMergesMemtableAndTables(t *testing.T) {
	e := sim.NewEngine(1)
	tr := newTree(e, 400)
	e.Go("w", func(p *sim.Proc) {
		for i := 0; i < 60; i++ {
			tr.Put(p, fmt.Sprintf("k%04d", i), fields(fmt.Sprintf("v%d", i)))
			p.Sleep(sim.Millisecond)
		}
	})
	e.Run(0)
	e.Go("r", func(p *sim.Proc) {
		got := tr.Scan(p, "k0010", 5)
		if len(got) != 5 {
			t.Fatalf("scan returned %d entries, want 5", len(got))
		}
		for i, ent := range got {
			want := fmt.Sprintf("k%04d", 10+i)
			if ent.Key != want {
				t.Errorf("scan[%d] = %s, want %s", i, ent.Key, want)
			}
		}
	})
	e.Run(0)
}

func TestCompactionReducesTableCount(t *testing.T) {
	e := sim.NewEngine(1)
	tr := newTree(e, 300)
	e.Go("w", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			tr.Put(p, fmt.Sprintf("k%06d", i), fields("0123456789"))
			p.Sleep(2 * sim.Millisecond)
		}
	})
	e.Run(0)
	if tr.Compactions() == 0 {
		t.Fatalf("no compaction ran despite %d tables", tr.TableCount())
	}
	if tr.TableCount() >= 8 {
		t.Fatalf("table count %d, compaction not keeping up", tr.TableCount())
	}
	// Data integrity after compaction.
	e.Go("r", func(p *sim.Proc) {
		for i := 0; i < 400; i += 37 {
			if _, ok := tr.Get(p, fmt.Sprintf("k%06d", i)); !ok {
				t.Errorf("k%06d lost after compaction", i)
			}
		}
	})
	e.Run(0)
}

func TestLoadDirectNoVirtualTime(t *testing.T) {
	e := sim.NewEngine(1)
	tr := newTree(e, 1<<14)
	for i := 0; i < 5000; i++ {
		tr.LoadDirect(fmt.Sprintf("k%07d", i), fields("0123456789"))
	}
	if e.Now() != 0 {
		t.Fatal("LoadDirect advanced virtual time")
	}
	if tr.DiskBytes() == 0 {
		t.Fatal("LoadDirect produced no on-disk data")
	}
	e.Go("r", func(p *sim.Proc) {
		for i := 0; i < 5000; i += 501 {
			if _, ok := tr.Get(p, fmt.Sprintf("k%07d", i)); !ok {
				t.Errorf("k%07d missing after direct load", i)
			}
		}
	})
	e.Run(0)
}

// TestLoadDirectSlabBytesCountsDistinctChunks loads enough records for
// many flushes and compactions, the last quarter overwriting earlier keys
// so that later compactions copy while earlier ones adopt, and checks
// that SlabBytes, kept by counters, equals the footprint recomputed from
// what is reachable: each distinct chunk once, whichever tables adopted
// it, plus the memtable's recycled chunks not yet reused. Every key must
// still read its last loaded value.
func TestLoadDirectSlabBytesCountsDistinctChunks(t *testing.T) {
	e := sim.NewEngine(1)
	tr := newTree(e, 1<<18)
	const n = 30000
	val := func(i, pass int) [][]byte { // 400 B: tables outgrow a slab chunk
		return [][]byte{[]byte(fmt.Sprintf("%02d-%0397d", pass, i))}
	}
	check := func(phase string) {
		t.Helper()
		if got, want := tr.SlabBytes(), reachableSlabBytes(tr); got != want {
			t.Fatalf("%s: SlabBytes = %d, distinct reachable chunks and entry records hold %d", phase, got, want)
		}
	}
	for i := 0; i < n; i++ {
		tr.LoadDirect(fmt.Sprintf("k%07d", i*7919%n), val(i*7919%n, 0))
	}
	if tr.Compactions() < 5 {
		t.Fatalf("%d compactions of distinct keys, want at least 5", tr.Compactions())
	}
	check("distinct keys")
	before := tr.Compactions()
	for i := 0; i < n/4; i++ {
		tr.LoadDirect(fmt.Sprintf("k%07d", i*3), val(i*3, 1))
	}
	if tr.Compactions() == before {
		t.Fatal("no compaction over the overwrites")
	}
	check("overwrites")
	e.Go("r", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pass := 0
			if i%3 == 0 && i/3 < n/4 {
				pass = 1
			}
			v, ok := tr.Get(p, fmt.Sprintf("k%07d", i))
			if !ok || string(v.Field(0)) != string(val(i, pass)[0]) {
				t.Errorf("k%07d = %q, %v, want %q", i, v.Field(0), ok, val(i, pass)[0])
				return
			}
		}
	})
	e.Run(0)
}

// reachableSlabBytes recomputes SlabBytes from the tree's structures
// instead of its counters: the capacity of every distinct chunk reachable
// from the memtable (node words, recycled chunks, payload slab) and the
// live tables (payload slab), plus each table's entry records.
func reachableSlabBytes(t *Tree) int64 {
	seen := map[uintptr]bool{}
	var total int64
	addChunks := func(chunks reflect.Value) {
		for i := 0; i < chunks.Len(); i++ {
			c := chunks.Index(i)
			if p := c.Pointer(); !seen[p] {
				seen[p] = true
				total += int64(c.Cap()) * int64(c.Type().Elem().Size())
			}
		}
	}
	mem := reflect.ValueOf(t.mem).Elem()
	addChunks(mem.FieldByName("arena").FieldByName("chunks"))
	addChunks(mem.FieldByName("arena").FieldByName("free"))
	addChunks(mem.FieldByName("data").FieldByName("chunks"))
	for _, tab := range t.tables {
		v := reflect.ValueOf(tab).Elem()
		addChunks(v.FieldByName("data").FieldByName("chunks"))
		meta := v.FieldByName("meta")
		total += int64(meta.Len()) * int64(meta.Type().Elem().Size())
	}
	return total
}

func TestDiskBytesIncludesFormatOverhead(t *testing.T) {
	e := sim.NewEngine(1)
	tr := newTree(e, 10) // below one record's payload: flush immediately
	// 75-byte records: 25-byte key, 5 x 10-byte fields.
	key := fmt.Sprintf("user%021d", 1)
	fs := make([][]byte, 5)
	for i := range fs {
		fs[i] = []byte("0123456789")
	}
	tr.LoadDirect(key, fs)
	// key 25 + perEntry 10 + 5*(10+20) = 185 > raw 75.
	if tr.DiskBytes() != 185 {
		t.Fatalf("DiskBytes = %d, want 185", tr.DiskBytes())
	}
}

func TestCacheMissChargesDisk(t *testing.T) {
	e := sim.NewEngine(1)
	n := cluster.New(e, cluster.ClusterD(1)).Nodes[0]
	tr := New(Config{
		Node:       n,
		FlushBytes: 1 << 12,
		Overhead:   sstable.Overhead{PerEntry: 10, PerCell: 20},
		CacheBytes: 1, // essentially nothing cached: disk-bound
	})
	for i := 0; i < 2000; i++ {
		tr.LoadDirect(fmt.Sprintf("k%07d", i), fields("0123456789"))
	}
	var elapsed sim.Time
	e.Go("r", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 20; i++ {
			tr.Get(p, fmt.Sprintf("k%07d", i*97))
		}
		elapsed = p.Now() - start
	})
	e.Run(0)
	if elapsed < 20*4*sim.Millisecond {
		t.Fatalf("20 uncached reads took %v, want >= 80ms of seeks", elapsed)
	}
	_, _, diskReads, _ := tr.Stats()
	if diskReads == 0 {
		t.Fatal("no disk reads recorded in disk-bound config")
	}
}

func TestCacheHitAvoidsDisk(t *testing.T) {
	e := sim.NewEngine(1)
	tr := newTree(e, 1<<12) // CacheBytes 1GiB >> data
	for i := 0; i < 2000; i++ {
		tr.LoadDirect(fmt.Sprintf("k%07d", i), fields("0123456789"))
	}
	e.Go("r", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			tr.Get(p, fmt.Sprintf("k%07d", i*13))
		}
	})
	e.Run(0)
	_, _, diskReads, _ := tr.Stats()
	if diskReads != 0 {
		t.Fatalf("memory-bound config did %d disk reads, want 0", diskReads)
	}
}

func TestWALTruncatedAfterFlush(t *testing.T) {
	e := sim.NewEngine(1)
	tr := newTree(e, 500)
	for i := 0; i < 100; i++ {
		tr.LoadDirect(fmt.Sprintf("k%05d", i), fields("0123456789"))
	}
	// After flushes, node disk usage should be close to table bytes (WAL
	// segments for flushed data are recycled; only unflushed payload stays).
	nodeUsage := tr.cfg.Node.DiskUsed()
	slack := tr.MemBytes() + 1
	if nodeUsage > tr.DiskBytes()+slack {
		t.Fatalf("node usage %d exceeds tables %d + unflushed %d", nodeUsage, tr.DiskBytes(), slack)
	}
}

// Property: after any sequence of puts (with duplicates), every key returns
// its most recent value, through any mixture of memtable/SSTable placement.
func TestPropertyLastWriteWins(t *testing.T) {
	f := func(ops []uint8) bool {
		e := sim.NewEngine(3)
		tr := newTree(e, 256) // tiny, lots of flushes
		want := map[string]string{}
		ok := true
		e.Go("w", func(p *sim.Proc) {
			for i, op := range ops {
				k := fmt.Sprintf("k%02d", op%32)
				v := fmt.Sprintf("v%d", i)
				tr.Put(p, k, fields(v))
				want[k] = v
				p.Sleep(sim.Millisecond)
			}
			for k, v := range want {
				got, found := tr.Get(p, k)
				if !found || string(got.Field(0)) != v {
					ok = false
				}
			}
		})
		e.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Get must stop at the first confirmed hit: tables are kept newest-first,
// so a hit in a newer generation can never be shadowed and older tables
// must not be probed (the seed probed every table and paid simulated disk
// I/O for probes that could never win).
func TestGetStopsAtNewestHit(t *testing.T) {
	e := sim.NewEngine(1)
	n := cluster.New(e, cluster.ClusterM(1)).Nodes[0]
	tr := New(Config{
		Node:       n,
		FlushBytes: 1, // every load flushes: one table per write
		CompactMin: 100,
		Overhead:   sstable.Overhead{PerEntry: 10, PerCell: 20},
		CacheBytes: 1 << 30,
	})
	tr.LoadDirect("hot", fields("old"))
	tr.LoadDirect("hot", fields("new"))
	if tr.TableCount() != 2 {
		t.Fatalf("TableCount = %d, want 2 (one per flushed write)", tr.TableCount())
	}
	e.Go("r", func(p *sim.Proc) {
		// Errorf, not Fatalf: Fatalf must not run off the test goroutine
		// and would deadlock the engine.
		v, ok := tr.Get(p, "hot")
		if !ok || string(v.Field(0)) != "new" {
			t.Errorf("Get(hot) = %q, %v, want new", v.Field(0), ok)
		}
	})
	e.Run(0)
	probes, bloomSkips, _, _ := tr.Stats()
	if probes != 1 {
		t.Fatalf("probes = %d, want 1 (early exit on newest-generation hit)", probes)
	}
	if bloomSkips != 0 {
		t.Fatalf("bloomSkips = %d, want 0 (both tables contain the key)", bloomSkips)
	}
}

func BenchmarkPutThroughMemtable(b *testing.B) {
	e := sim.NewEngine(1)
	tr := newTree(e, 1<<30) // never flush: isolate memtable path
	e.Go("w", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			tr.Put(p, fmt.Sprintf("key%09d", i), fields("0123456789"))
		}
	})
	b.ResetTimer()
	e.Run(0)
}

func BenchmarkGetAcrossTables(b *testing.B) {
	e := sim.NewEngine(1)
	tr := newTree(e, 1<<14)
	for i := 0; i < 50000; i++ {
		tr.LoadDirect(fmt.Sprintf("key%09d", i), fields("0123456789"))
	}
	e.Go("r", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			tr.Get(p, fmt.Sprintf("key%09d", i%50000))
		}
	})
	b.ResetTimer()
	e.Run(0)
}

// TestScanPrunesDisjointTables pins the scan-side table pruning contract:
// a scan covers [start, +inf), so tables whose maxKey sorts below start
// must be skipped without paying a positioning charge, while every other
// table is positioned exactly once. Landing this pruning intentionally
// changed scan-heavy cells' RNG draw counts (fewer cache-miss draws), the
// same called-out treatment Get's early-exit got in PR 1.
func TestScanPrunesDisjointTables(t *testing.T) {
	e := sim.NewEngine(1)
	n := cluster.New(e, cluster.ClusterM(1)).Nodes[0]
	tr := New(Config{
		Node:       n,
		FlushBytes: 300, // ~20 sequential entries per table
		CompactMin: 100, // no compaction: table ranges stay disjoint
		CacheBytes: 1 << 30,
	})
	for i := 0; i < 100; i++ {
		tr.LoadDirect(fmt.Sprintf("k%04d", i), fields("0123456789"))
	}
	if tr.TableCount() < 3 {
		t.Fatalf("want >= 3 disjoint tables, got %d", tr.TableCount())
	}
	const start = "k0070"
	var wantPositioned, wantPruned int64
	for _, tab := range tr.tables {
		if _, maxKey := tab.KeyRange(); maxKey < start {
			wantPruned++
		} else {
			wantPositioned++
		}
	}
	if wantPruned == 0 || wantPositioned == 0 {
		t.Fatalf("layout not prunable: positioned=%d pruned=%d", wantPositioned, wantPruned)
	}
	e.Go("r", func(p *sim.Proc) {
		got := tr.Scan(p, start, 5)
		if len(got) != 5 {
			t.Fatalf("scan returned %d entries, want 5", len(got))
		}
		for i, ent := range got {
			if want := fmt.Sprintf("k%04d", 70+i); ent.Key != want {
				t.Errorf("scan[%d] = %s, want %s (pruning dropped entries)", i, ent.Key, want)
			}
		}
	})
	e.Run(0)
	positioned, pruned := tr.ScanStats()
	if positioned != wantPositioned || pruned != wantPruned {
		t.Errorf("scan stats positioned=%d pruned=%d, want %d/%d",
			positioned, pruned, wantPositioned, wantPruned)
	}
	// A scan from the start of the keyspace positions every table.
	e.Go("r2", func(p *sim.Proc) { tr.Scan(p, "", 5) })
	e.Run(0)
	positioned2, pruned2 := tr.ScanStats()
	if positioned2 != positioned+int64(tr.TableCount()) || pruned2 != pruned {
		t.Errorf("full-range scan stats positioned=%d pruned=%d, want %d/%d",
			positioned2, pruned2, positioned+int64(tr.TableCount()), pruned)
	}
}

// TestScanCursorDedupsNewestWins checks that Scan's k-way merge over the
// memtable and sstables yields each key once, with its newest version.
func TestScanCursorDedupsNewestWins(t *testing.T) {
	e := sim.NewEngine(1)
	tr := newTree(e, 200) // small flush: overwrites land in different tables
	e.Go("w", func(p *sim.Proc) {
		for round := 0; round < 3; round++ {
			for i := 0; i < 20; i++ {
				tr.Put(p, fmt.Sprintf("k%04d", i), fields(fmt.Sprintf("r%d", round)))
				p.Sleep(sim.Millisecond)
			}
		}
	})
	e.Run(0)
	e.Go("r", func(p *sim.Proc) {
		got := tr.Scan(p, "k0000", 100)
		for i, ent := range got {
			if want := fmt.Sprintf("k%04d", i); ent.Key != want {
				t.Errorf("entry %d = %s, want %s", i, ent.Key, want)
			}
			if v := string(ent.Fields.Field(0)); v != "r2" {
				t.Errorf("%s = %q, want newest round r2", ent.Key, v)
			}
		}
		if len(got) != 20 {
			t.Errorf("scan returned %d distinct keys, want 20", len(got))
		}
	})
	e.Run(0)
}
