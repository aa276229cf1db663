package lsm

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/memtable"
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
// many flushes and compactions, then overwrites a quarter of the keys
// with timed writes so that later compactions copy while earlier ones
// adopt, and checks
// that SlabBytes, kept by counters, equals the footprint recomputed from
// what is reachable: each distinct chunk once, whichever tables adopted
// it. Every key must still read its last loaded value.
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
	// The overwrites are timed writes, pausing now and then so the
	// background flushes and compactions keep up.
	e.Go("w", func(p *sim.Proc) {
		for i := 0; i < n/4; i++ {
			tr.Put(p, fmt.Sprintf("k%07d", i*3), val(i*3, 1))
			if i%64 == 63 {
				p.Sleep(sim.Millisecond)
			}
		}
	})
	e.Run(0)
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
// from the memtable (node words, payload slab) and the
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
	addChunks(mem.FieldByName("recs").FieldByName("Data").FieldByName("chunks"))
	for _, tab := range t.tables {
		v := reflect.ValueOf(tab).Elem()
		addChunks(v.FieldByName("recs").FieldByName("Data").FieldByName("chunks"))
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
	tr.Seal() // build the deferred load before the timer starts
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

// loadPerRecord is the deferred load's oracle: LoadDirect's effect when
// every record goes through the memtable and each flush, with the
// compactions it triggers, runs at once and untimed.
func loadPerRecord(t *Tree, key string, fields [][]byte) {
	t.log.AppendDirect(payloadBytes(key, fields))
	t.mem.Put(key, fields)
	if t.mem.Bytes() < t.cfg.FlushBytes {
		return
	}
	t.gen++
	full := t.mem
	t.mem = memtable.New()
	t.installTable(sstable.FromMemtable(t.gen, full, t.cfg.Overhead, bloomFPP), full.Bytes())
	for victims := t.pickVictims(); victims != nil; victims = t.pickVictims() {
		t.replaceTables(victims, sstable.Merge(victims, t.cfg.Overhead, bloomFPP))
		t.compactions++
	}
}

// mustPanic fails unless fn panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	fn()
}

// TestDeferredLoadMatchesPerRecord loads the same records into a tree,
// which defers the load and builds it at Seal, and through
// loadPerRecord, and requires the two to match table by table:
// generation, entries, shapes, Bloom filter, key range, payload chunks,
// DiskBytes and SlabBytes, plus the table count, compactions, WAL bytes,
// node disk usage and memtable contents and layout. A key repeated
// within a flushed batch, or in batches a compaction merges, breaks the
// load contract and must panic, as must a LoadDirect after Seal; a key
// repeated only across final tables, or within the memtable, must not.
func TestDeferredLoadMatchesPerRecord(t *testing.T) {
	type rec struct {
		key    string
		fields [][]byte
	}
	// value builds record i's fields: a third of the records carry a
	// second, shorter field, so tables intern several shapes.
	value := func(i, size int) [][]byte {
		v := [][]byte{[]byte(fmt.Sprintf("%0*d", size, i))}
		if i%3 == 0 {
			v = append(v, []byte(fmt.Sprintf("x%d", i%7)))
		}
		return v
	}
	randomKeys := func(n, size int) []rec {
		out := make([]rec, n)
		for i := range out {
			j := i * 7919 % n // n is not a multiple of 7919: a permutation
			out[i] = rec{fmt.Sprintf("k%09d", j), value(j, size)}
		}
		return out
	}
	sequential := func(from, n, size int) []rec {
		out := make([]rec, n)
		for i := range out {
			out[i] = rec{fmt.Sprintf("m/%06d/%012d", (from+i)%5, from+i), value(from+i, size)}
		}
		return out
	}
	// repeat gives the keys of recs[from:to] new values, size bytes long.
	repeat := func(recs []rec, from, to, size int) []rec {
		out := make([]rec, 0, to-from)
		for i, r := range recs[from:to] {
			out = append(out, rec{r.key, value(-1-i, size)})
		}
		return out
	}
	cat := func(parts ...[]rec) []rec { return slices.Concat(parts...) }
	// uniform returns n distinct 100-byte records: a 21-byte key and one
	// 79-byte field.
	uniform := func(n int) []rec {
		out := make([]rec, n)
		for i := range out {
			out[i] = rec{fmt.Sprintf("u/%06d/%012d", i%5, i), [][]byte{[]byte(fmt.Sprintf("%079d", i))}}
		}
		return out
	}
	big, small := randomKeys(5000, 1000), randomKeys(3000, 90)
	const flush = 64 << 10
	const inRun, inMerge = "a run repeats a key", "merged runs repeat a key"
	cases := []struct {
		name   string
		flush  int64
		load   []rec  // loaded before the deferred tree's Seal
		after  []rec  // loaded after it: the first must panic
		panics string // the load's panic; "" if it must build
		tiers  int    // at least this many tiers among the final tables
	}{
		{name: "random keys over two tiers", flush: flush, load: randomKeys(12000, 1000), tiers: 2},
		{name: "sequential keys", flush: flush, load: sequential(0, 20000, 90)},
		{
			// small[10]'s key comes back ten records later, inside the
			// first batch.
			name:   "duplicate within a batch",
			flush:  flush,
			load:   cat(small[:20], repeat(small, 10, 11, 90), small[20:]),
			panics: inRun,
		},
		{
			// The same inside the fifth batch, which no compaction merges:
			// Sort alone catches it.
			name:   "duplicate within an unmerged batch",
			flush:  flush,
			load:   cat(small[:2800], repeat(small, 2790, 2791, 90), small[2800:], sequential(0, 1000, 90)),
			panics: inRun,
		},
		{
			// The repeats land a few batches after their originals, and
			// every table is tier 0, so a compaction merges the two.
			name:   "duplicates in batches that merge",
			flush:  flush,
			load:   cat(small, repeat(small, 0, 50, 90), sequential(0, 3000, 90)),
			panics: inMerge,
		},
		{
			// big[0]'s key comes back in big's fourth batch, which merges
			// with the first into what becomes the tier-1 table; the
			// sequential records after it merge cleanly into a newer
			// tier-0 table.
			name:   "duplicate in an older merged table",
			flush:  flush,
			load:   cat(big[:200], repeat(big, 0, 1, 1000), big[200:], sequential(0, 3000, 90)),
			panics: inMerge,
		},
		{
			// big settles into one tier-1 table and a few tier-0 ones.
			// The repeats of its first records, all in that tier-1 table,
			// fill tier-0 tables and the memtable, which nothing merges
			// with it.
			name:  "duplicates only across final tables",
			flush: flush,
			load:  cat(big, repeat(big, 0, 600, 90), repeat(big, 600, 630, 50)),
			tiers: 2,
		},
		{
			// The repeats of small's last records stay in the memtable,
			// which replaces them, one with a new shape.
			name:  "duplicates within the memtable",
			flush: flush,
			load:  cat(small, repeat(small, 2990, 3000, 90), repeat(small, 2995, 2996, 50)),
		},
		// 4,000-byte flushes of 100-byte records: 1,000 records fill
		// exactly 25 batches.
		{name: "load ending on a flush boundary", flush: 4000, load: uniform(1000)},
		{name: "empty load", flush: flush},
		{name: "load after a seal", flush: flush, load: small, after: sequential(0, 4000, 90)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			deferred := newTree(sim.NewEngine(1), c.flush)
			load := func() {
				for _, r := range c.load {
					deferred.LoadDirect(r.key, r.fields)
				}
				deferred.Seal()
			}
			if c.panics != "" {
				mustPanic(t, c.panics, load)
				return
			}
			load()
			perRecord := newTree(sim.NewEngine(1), c.flush)
			perRecord.Seal()
			for _, r := range c.load {
				loadPerRecord(perRecord, r.key, r.fields)
			}
			requireSameTree(t, deferred, perRecord)
			if len(c.after) > 0 {
				mustPanic(t, "LoadDirect after Seal", func() { deferred.LoadDirect(c.after[0].key, c.after[0].fields) })
			}
			tiers := map[int]bool{}
			for _, tab := range perRecord.tables {
				tiers[tier(tab.DiskBytes)] = true
			}
			if len(tiers) < c.tiers {
				t.Fatalf("final tables span %d tiers, want at least %d", len(tiers), c.tiers)
			}
			if c.name == "load ending on a flush boundary" && (perRecord.MemBytes() != 0 || perRecord.TableCount() == 0) {
				t.Fatalf("load left %d bytes in the memtable over %d tables, want a full last batch",
					perRecord.MemBytes(), perRecord.TableCount())
			}
		})
	}
}

// requireSameTree fails unless got and want hold the same tables, field
// by field, and the same counters, log, disk usage and memtable contents.
func requireSameTree(t *testing.T, got, want *Tree) {
	t.Helper()
	if g, w := got.TableCount(), want.TableCount(); g != w {
		t.Fatalf("TableCount = %d, want %d", g, w)
	}
	for i, w := range want.tables {
		g := got.tables[i]
		for _, f := range []string{"Gen", "meta", "recs", "filter", "minKey", "maxKey", "DiskBytes"} {
			if !reflect.DeepEqual(field(g, f), field(w, f)) {
				t.Fatalf("table %d (gen %d): %s differs", i, w.Gen, f)
			}
		}
		if g.SlabBytes() != w.SlabBytes() {
			t.Fatalf("table %d: SlabBytes = %d, want %d", i, g.SlabBytes(), w.SlabBytes())
		}
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"generation", int64(got.gen), int64(want.gen)},
		{"Compactions", got.Compactions(), want.Compactions()},
		{"DiskBytes", got.DiskBytes(), want.DiskBytes()},
		{"WAL DurableBytes", got.Log().DurableBytes(), want.Log().DurableBytes()},
		{"node DiskUsed", got.cfg.Node.DiskUsed(), want.cfg.Node.DiskUsed()},
		{"MemBytes", got.MemBytes(), want.MemBytes()},
		{"SlabBytes", got.SlabBytes(), want.SlabBytes()},
		{"memtable Len", int64(got.mem.Len()), int64(want.mem.Len())},
	} {
		if c.got != c.want {
			t.Fatalf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	ge, we := got.mem.ScanAppend(nil, "", got.mem.Len()), want.mem.ScanAppend(nil, "", want.mem.Len())
	for i := range we {
		if ge[i].Key != we[i].Key || !reflect.DeepEqual(ge[i].Fields.Materialize(), we[i].Fields.Materialize()) {
			t.Fatalf("memtable entry %d = %q, want %q", i, ge[i].Key, we[i].Key)
		}
	}
	if !reflect.DeepEqual(got.mem, want.mem) {
		t.Fatal("memtables hold the same entries in different nodes or slabs")
	}
}

// field reads a table's field by name, unexported ones included.
func field(tab *sstable.Table, name string) any {
	f := reflect.ValueOf(tab).Elem().FieldByName(name)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}

// TestPickCompaction pins the size-tiered policy: the fullest tier with at
// least CompactMin tables, the lower tier on ties, indices in table order.
func TestPickCompaction(t *testing.T) {
	const mb = 1 << 20
	for _, c := range []struct {
		sizes []int64
		min   int
		want  []int
	}{
		{sizes: nil, min: 4, want: nil},
		{sizes: []int64{1, 2, 3}, min: 4, want: nil},
		{sizes: []int64{1, 2, 3, 4}, min: 4, want: []int{0, 1, 2, 3}},
		// Tier 1 (4–16 MiB) holds four, tier 0 three: tier 1 wins.
		{sizes: []int64{1, 5 * mb, 2, 6 * mb, 3, 7 * mb, 8 * mb}, min: 3, want: []int{1, 3, 5, 6}},
		// Four each: the lower tier wins the tie.
		{sizes: []int64{5 * mb, 1, 6 * mb, 2, 7 * mb, 3, 8 * mb, 4}, min: 4, want: []int{1, 3, 5, 7}},
		// An empty tier never qualifies, whatever the minimum.
		{sizes: []int64{5 * mb}, min: 0, want: []int{0}},
	} {
		if got := pickCompaction(nil, c.sizes, c.min); !slices.Equal(got, c.want) {
			t.Errorf("pickCompaction(%v, %d) = %v, want %v", c.sizes, c.min, got, c.want)
		}
	}
}
