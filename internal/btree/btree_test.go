package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{PageSize: 4096, BufferPages: 1 << 20, LeafCap: 8, InternalCap: 8}
}

func fields(v string) [][]byte { return [][]byte{[]byte(v)} }

func TestPutGetRoundTrip(t *testing.T) {
	tr := New(small())
	for i := 0; i < 1000; i++ {
		tr.Put(fmt.Sprintf("k%06d", i), fields(fmt.Sprintf("v%d", i)))
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		v, ok, _ := tr.Get(fmt.Sprintf("k%06d", i))
		if !ok || string(v.Field(0)) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(k%06d) = %v, %v", i, v, ok)
		}
	}
	if _, ok, _ := tr.Get("zzz"); ok {
		t.Fatal("found absent key")
	}
}

func TestPutReplaceKeepsLen(t *testing.T) {
	tr := New(small())
	tr.Put("k", fields("a"))
	tr.Put("k", fields("b"))
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace, want 1", tr.Len())
	}
	v, _, _ := tr.Get("k")
	if string(v.Field(0)) != "b" {
		t.Fatalf("value %s, want b", v.Field(0))
	}
}

func TestRandomOrderInsertionSorted(t *testing.T) {
	tr := New(small())
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(2000)
	for _, i := range perm {
		tr.Put(fmt.Sprintf("k%06d", i), fields("v"))
	}
	got, _ := tr.Scan("", 2000)
	if len(got) != 2000 {
		t.Fatalf("scan returned %d, want 2000", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Key < got[j].Key }) {
		t.Fatal("scan output not sorted")
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := New(small()) // caps of 8
	for i := 0; i < 10000; i++ {
		tr.Put(fmt.Sprintf("k%07d", i), fields("v"))
	}
	if h := tr.Height(); h < 4 || h > 7 {
		t.Fatalf("height = %d for 10k entries with fanout 8, want 4..7", h)
	}
}

func TestScanFromMiddle(t *testing.T) {
	tr := New(small())
	for i := 0; i < 100; i++ {
		tr.Put(fmt.Sprintf("k%04d", i), fields("v"))
	}
	got, _ := tr.Scan("k0050", 10)
	if len(got) != 10 || got[0].Key != "k0050" || got[9].Key != "k0059" {
		t.Fatalf("scan = %v", got)
	}
}

func TestScanAllFromCountsTail(t *testing.T) {
	tr := New(small())
	for i := 0; i < 100; i++ {
		tr.Put(fmt.Sprintf("k%04d", i), fields("v"))
	}
	n, io := tr.ScanAllFrom("k0040")
	if n != 60 {
		t.Fatalf("ScanAllFrom counted %d entries, want 60", n)
	}
	if io.PagesTouched < 60/8 {
		t.Fatalf("pages touched %d, want at least %d leaves", io.PagesTouched, 60/8)
	}
}

func TestBufferPoolMissesWhenSmall(t *testing.T) {
	cfg := small()
	cfg.BufferPages = 4 // tiny pool
	tr := New(cfg)
	var loadIO IOStats
	for i := 0; i < 5000; i++ {
		io := tr.Put(fmt.Sprintf("k%07d", i), fields("v"))
		loadIO.Misses += io.Misses
		loadIO.DirtyWritebacks += io.DirtyWritebacks
	}
	if loadIO.Misses == 0 {
		t.Fatal("no buffer pool misses with a 4-page pool")
	}
	if loadIO.DirtyWritebacks == 0 {
		t.Fatal("no dirty writebacks despite eviction pressure")
	}
	// Random reads should also miss.
	_, _, io := tr.Get("k0002500")
	if io.Misses == 0 {
		t.Fatal("read of cold page did not miss")
	}
}

func TestBufferPoolHitsWhenLarge(t *testing.T) {
	tr := New(small()) // pool holds 1M pages: everything fits
	for i := 0; i < 5000; i++ {
		tr.Put(fmt.Sprintf("k%07d", i), fields("v"))
	}
	_, _, io := tr.Get("k0002500")
	if io.Misses != 0 {
		t.Fatalf("read with all-in-pool had %d misses", io.Misses)
	}
}

func TestRepeatedReadsOfSamePageHitAfterFirstMiss(t *testing.T) {
	cfg := small()
	cfg.BufferPages = 8
	tr := New(cfg)
	for i := 0; i < 1000; i++ {
		tr.Put(fmt.Sprintf("k%07d", i), fields("v"))
	}
	tr.Get("k0000500")
	_, _, io := tr.Get("k0000500") // same path now resident
	if io.Misses != 0 && io.Misses >= io.PagesTouched {
		t.Fatalf("second read missed all %d pages", io.PagesTouched)
	}
}

func TestDiskBytesGrowsWithPages(t *testing.T) {
	tr := New(small())
	before := tr.DiskBytes()
	for i := 0; i < 1000; i++ {
		tr.Put(fmt.Sprintf("k%07d", i), fields("v"))
	}
	if tr.DiskBytes() <= before {
		t.Fatal("disk bytes did not grow with inserts")
	}
	if tr.DiskBytes() != int64(tr.Pages())*4096 {
		t.Fatalf("DiskBytes %d != pages %d * 4096", tr.DiskBytes(), tr.Pages())
	}
}

// Property: the tree agrees with a reference map after arbitrary puts.
func TestPropertyAgainstMap(t *testing.T) {
	f := func(ops []struct {
		K uint16
		V string
	}) bool {
		tr := New(small())
		ref := map[string]string{}
		for _, op := range ops {
			k := fmt.Sprintf("k%05d", op.K)
			tr.Put(k, fields(op.V))
			ref[k] = op.V
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok, _ := tr.Get(k)
			if !ok || string(got.Field(0)) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: scan output equals the sorted reference filtered to >= start.
func TestPropertyScanMatchesRef(t *testing.T) {
	f := func(keys []uint16, start uint16, n8 uint8) bool {
		limit := int(n8%32) + 1
		tr := New(small())
		ref := map[string]bool{}
		for _, k := range keys {
			key := fmt.Sprintf("k%05d", k)
			tr.Put(key, fields("v"))
			ref[key] = true
		}
		startKey := fmt.Sprintf("k%05d", start)
		var want []string
		for k := range ref {
			if k >= startKey {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		if len(want) > limit {
			want = want[:limit]
		}
		got, _ := tr.Scan(startKey, limit)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Key != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// --- Deferred bulk build ---

func TestBulkLoadEmptyBatch(t *testing.T) {
	tr := New(small())
	// No Load calls at all: every accessor works on the empty tree.
	if tr.Len() != 0 || tr.Height() != 1 || tr.Pages() != 1 {
		t.Fatalf("empty tree shape: len=%d h=%d pages=%d", tr.Len(), tr.Height(), tr.Pages())
	}
	if _, ok, _ := tr.Get("x"); ok {
		t.Fatal("empty tree found a key")
	}
	// A Put after the (trivial) seal still works.
	tr.Put("a", fields("v"))
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after post-seal Put", tr.Len())
	}
}

func TestBulkLoadSingleKey(t *testing.T) {
	tr := New(small())
	tr.Load("k", fields("v"))
	v, ok, _ := tr.Get("k")
	if !ok || string(v.Field(0)) != "v" {
		t.Fatalf("Get after single-key bulk load = %v, %v", v, ok)
	}
	if tr.Len() != 1 || tr.Height() != 1 {
		t.Fatalf("single-key tree shape: len=%d h=%d", tr.Len(), tr.Height())
	}
}

// A batch that repeats a key breaks the load contract: Seal panics
// instead of resolving it last-write-wins.
func TestBulkLoadDuplicatePanics(t *testing.T) {
	tr := New(small())
	for i := 0; i < 100; i++ {
		tr.Load(fmt.Sprintf("k%03d", i), fields("first"))
	}
	tr.Load("k042", fields("second"))
	mustPanic(t, "repeats a key", func() { tr.Len() })
}

// A sealed tree takes no second batch: the Load panics and the first
// batch stays as built.
func TestBulkLoadAfterSealPanics(t *testing.T) {
	tr := New(small())
	for i := 0; i < 500; i++ {
		tr.Load(fmt.Sprintf("k%04d", i), fields("a"))
	}
	if tr.Len() != 500 { // seals the batch
		t.Fatalf("Len = %d", tr.Len())
	}
	mustPanic(t, "Load after Seal", func() { tr.Load("k0500", fields("b")) })
	if got, _ := tr.Scan("", 1000); len(got) != 500 {
		t.Fatalf("scan after the refused Load returned %d, want 500", len(got))
	}
}

// TestBulkBuildEquivalence pins the bulk path's contract: a bulk-loaded
// tree is bit-equivalent to a per-record-built one — same shape, same page
// count, same Get/Scan results, and (the strong half) identical I/O
// charges on every subsequent operation, including buffer-pool misses and
// dirty write-backs under an eviction-heavy pool, which requires the
// rebuilt pool's contents, recency order and dirty flags to match the
// per-touch-maintained pool exactly. Besides a tiny fanout, it runs the
// Voldemort and MySQL page shapes over more records than one load-batch
// chunk holds, so the build crosses chunk boundaries.
func TestBulkBuildEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		leafCap, internalCap int
		records              int
	}{
		{"fanout8", 8, 8, 3000},
		{"voldemort", 11, 128, 20_001}, // seven load-batch chunks
		{"mysql", 94, 512, 20_001},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bulkEquivalence(t, Config{PageSize: 4096, LeafCap: tc.leafCap, InternalCap: tc.internalCap,
				BufferPages: 7}, // tiny: constant eviction, so pool state divergence shows up immediately
				tc.records)
		})
	}
}

func bulkEquivalence(t *testing.T, cfg Config, records int) {
	perRecord := New(cfg)
	bulk := New(cfg)
	rng := rand.New(rand.NewSource(11))
	perm := rng.Perm(records)
	for _, i := range perm { // hash-permuted arrival, like the benchmark's load
		k := fmt.Sprintf("k%06d", i)
		perRecord.Put(k, fields(fmt.Sprintf("v%d", i)))
		bulk.Load(k, fields(fmt.Sprintf("v%d", i)))
	}
	if bulk.Len() != perRecord.Len() || bulk.Height() != perRecord.Height() || bulk.Pages() != perRecord.Pages() {
		t.Fatalf("shape diverged: bulk len=%d h=%d pages=%d, per-record len=%d h=%d pages=%d",
			bulk.Len(), bulk.Height(), bulk.Pages(), perRecord.Len(), perRecord.Height(), perRecord.Pages())
	}
	if bulk.DiskBytes() != perRecord.DiskBytes() {
		t.Fatalf("disk bytes diverged: %d vs %d", bulk.DiskBytes(), perRecord.DiskBytes())
	}
	// Identical op sequence, compared op by op: values AND charges.
	opRng := rand.New(rand.NewSource(12))
	extra := records / 6
	for op := 0; op < 4000; op++ {
		switch opRng.Intn(4) {
		case 0:
			k := fmt.Sprintf("k%06d", opRng.Intn(records+extra)) // some misses
			va, oka, ioa := perRecord.Get(k)
			vb, okb, iob := bulk.Get(k)
			if oka != okb || ioa != iob {
				t.Fatalf("op %d: Get(%s) diverged: (%v,%+v) vs (%v,%+v)", op, k, oka, ioa, okb, iob)
			}
			if oka && string(va.Field(0)) != string(vb.Field(0)) {
				t.Fatalf("op %d: Get(%s) values diverged", op, k)
			}
		case 1:
			k := fmt.Sprintf("k%06d", records+opRng.Intn(extra))
			ioa := perRecord.Put(k, fields("new"))
			iob := bulk.Put(k, fields("new"))
			if ioa != iob {
				t.Fatalf("op %d: Put(%s) charges diverged: %+v vs %+v", op, k, ioa, iob)
			}
		case 2:
			k := fmt.Sprintf("k%06d", opRng.Intn(records))
			founda, ioa := perRecord.Update(k, fields("upd"))
			foundb, iob := bulk.Update(k, fields("upd"))
			if founda != foundb || ioa != iob {
				t.Fatalf("op %d: Update(%s) diverged: (%v,%+v) vs (%v,%+v)", op, k, founda, ioa, foundb, iob)
			}
		case 3:
			k := fmt.Sprintf("k%06d", opRng.Intn(records))
			ra, ioa := perRecord.Scan(k, 20)
			rb, iob := bulk.Scan(k, 20)
			if len(ra) != len(rb) || ioa != iob {
				t.Fatalf("op %d: Scan(%s) diverged: (%d,%+v) vs (%d,%+v)", op, k, len(ra), ioa, len(rb), iob)
			}
			for i := range ra {
				if ra[i].Key != rb[i].Key || string(ra[i].Fields.Field(0)) != string(rb[i].Fields.Field(0)) {
					t.Fatalf("op %d: Scan(%s) entry %d diverged: %q vs %q", op, k, i, ra[i].Key, rb[i].Key)
				}
			}
		}
	}
}

// --- In-place updates ---

func TestUpdateRewritesInPlace(t *testing.T) {
	tr := New(small())
	for i := 0; i < 1000; i++ {
		tr.Put(fmt.Sprintf("k%05d", i), fields("old"))
	}
	pages, height, n := tr.Pages(), tr.Height(), tr.Len()
	found, io := tr.Update("k00500", fields("new"))
	if !found {
		t.Fatal("update of existing key reported missing")
	}
	if io.PagesTouched == 0 {
		t.Fatal("update touched no pages")
	}
	if tr.Pages() != pages || tr.Height() != height || tr.Len() != n {
		t.Fatalf("in-place update changed shape: pages %d->%d height %d->%d len %d->%d",
			pages, tr.Pages(), height, tr.Height(), n, tr.Len())
	}
	v, _, _ := tr.Get("k00500")
	if string(v.Field(0)) != "new" {
		t.Fatalf("updated value = %q", v.Field(0))
	}
}

func TestUpdateMissingKeyPaysDescent(t *testing.T) {
	tr := New(small())
	for i := 0; i < 1000; i++ {
		tr.Put(fmt.Sprintf("k%05d", i), fields("v"))
	}
	found, io := tr.Update("zzz", fields("x"))
	if found {
		t.Fatal("update found an absent key")
	}
	if io.PagesTouched < tr.Height() {
		t.Fatalf("missed update touched %d pages, want a full descent (height %d)", io.PagesTouched, tr.Height())
	}
	if tr.Len() != 1000 {
		t.Fatalf("missed update changed Len to %d", tr.Len())
	}
}

func TestUpdateDirtiesOnlyLeaf(t *testing.T) {
	cfg := small()
	cfg.BufferPages = 4
	tr := New(cfg)
	for i := 0; i < 5000; i++ {
		tr.Put(fmt.Sprintf("k%07d", i), fields("v"))
	}
	// Drain dirty pages out of the tiny pool with clean reads, then watch
	// an update: its descent reads internals clean, so later evictions of
	// those internals must not charge write-backs for them.
	for i := 0; i < 5000; i += 7 {
		tr.Get(fmt.Sprintf("k%07d", i))
	}
	_, io := tr.Update("k0002500", fields("w"))
	if io.PagesTouched < 2 {
		t.Fatalf("update touched %d pages, want a descent", io.PagesTouched)
	}
	// Updates never allocate: repeated updates keep the page count fixed.
	pages := tr.Pages()
	for i := 0; i < 2000; i++ {
		tr.Update(fmt.Sprintf("k%07d", i), fields("w2"))
	}
	if tr.Pages() != pages {
		t.Fatalf("2000 updates grew pages %d -> %d", pages, tr.Pages())
	}
}

// Property: a bulk-loaded batch of distinct keys followed by point ops
// agrees with a reference map.
func TestPropertyBulkAgainstMap(t *testing.T) {
	f := func(batch []uint16, extra []uint16) bool {
		tr := New(small())
		ref := map[string]bool{}
		for _, k := range batch {
			key := fmt.Sprintf("k%05d", k)
			if !ref[key] { // a load batch holds distinct keys
				tr.Load(key, fields("v"))
				ref[key] = true
			}
		}
		for _, k := range extra {
			key := fmt.Sprintf("x%05d", k)
			tr.Put(key, fields("v"))
			ref[key] = true
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k := range ref {
			if _, ok, _ := tr.Get(k); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	tr := New(Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(fmt.Sprintf("key%09d", i), fields("0123456789"))
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New(Config{})
	for i := 0; i < 100000; i++ {
		tr.Put(fmt.Sprintf("key%09d", i), fields("0123456789"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(fmt.Sprintf("key%09d", i%100000))
	}
}

// TestCursorMatchesScanEntriesAndIO checks Scan against a reference walk
// of the leaf chain: the same entries, and page IO of exactly the index
// descent plus the leaves the walk reads.
func TestCursorMatchesScanEntriesAndIO(t *testing.T) {
	tr := New(small())
	for i := 0; i < 100; i++ {
		tr.Put(fmt.Sprintf("k%04d", i), fields("v"))
	}
	got, io := tr.Scan("k0030", 25)
	if len(got) != 25 {
		t.Fatalf("scan returned %d entries, want 25", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("k%04d", 30+i); e.Key != want {
			t.Fatalf("entry %d = %s, want %s", i, e.Key, want)
		}
	}
	// The walk touches the index descent plus exactly the leaves holding
	// k0030..k0054: never the leaf after the count-th entry.
	leaves := 0
	n := tr.root
	for !n.leaf {
		n = n.children[0]
	}
	for ; n != nil; n = n.next {
		first, last := tr.key(n, 0), tr.key(n, len(n.recs)-1)
		if last >= "k0030" && first <= "k0054" {
			leaves++
		}
	}
	if want := tr.Height() - 1 + leaves; io.PagesTouched != want {
		t.Fatalf("scan touched %d pages, want %d (descent %d + %d leaves)",
			io.PagesTouched, want, tr.Height()-1, leaves)
	}
}

// TestCursorZeroAndTailEdges pins the ends of Scan's leaf walk: a zero
// count reads no leaf, and a walk past the last key ends cleanly.
func TestCursorZeroAndTailEdges(t *testing.T) {
	tr := New(small())
	for i := 0; i < 20; i++ {
		tr.Put(fmt.Sprintf("k%04d", i), fields("v"))
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d: the test needs an index above the leaves", tr.Height())
	}
	// A zero-count scan pays only the index descent: no leaf is read.
	got, zeroIO := tr.Scan("k0005", 0)
	if len(got) != 0 || zeroIO.PagesTouched != tr.Height()-1 {
		t.Fatalf("count=0 scan: %d entries, %d pages touched, want 0 and the %d-page descent",
			len(got), zeroIO.PagesTouched, tr.Height()-1)
	}
	// A scan past the last key reads the last leaf and ends cleanly.
	if got, io := tr.Scan("zzz", 5); len(got) != 0 || io.PagesTouched != tr.Height() {
		t.Fatalf("scan past the tail: %d entries, %d pages touched, want 0 and %d",
			len(got), io.PagesTouched, tr.Height())
	}
	// A count beyond the tail stops at the last entry.
	if got, _ := tr.Scan("k0015", 100); len(got) != 5 || got[4].Key != "k0019" {
		t.Fatalf("tail scan returned %d entries, want k0015..k0019", len(got))
	}
}
