package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/bloom"
	"repro/internal/memtable"
	"repro/internal/slab"
)

var ov = Overhead{PerEntry: 10, PerCell: 20}

// builder assembles a table by copying entries into its own slabs.
type builder struct {
	t       *Table
	scratch [][]byte
}

func newBuilder(gen, n int) *builder {
	return &builder{t: &Table{Gen: gen, meta: make([]entryMeta, 0, n)}}
}

// add appends one entry (keys must arrive in ascending order, no
// duplicates), copying key and field bytes into the table's slab.
func (b *builder) add(key string, fields slab.FieldsView) {
	b.scratch = b.scratch[:0]
	for i := range fields.Len() {
		b.scratch = append(b.scratch, fields.Field(i))
	}
	r := b.t.recs.Append(key, b.scratch)
	b.t.meta = append(b.t.meta, entryMeta{keyPfx: slab.KeyPrefix(key, 0), keyPfx2: slab.KeyPrefix(key, 8), rec: r})
}

// Build creates a table from entries (they will be sorted; later duplicates
// win), the reference construction tests compare the production paths
// against. Key and field bytes are copied into the table's own slab. fpp is
// the Bloom filter false-positive target.
func Build(gen int, entries []slab.Entry, ov Overhead, fpp float64) *Table {
	sorted := make([]slab.Entry, len(entries))
	copy(sorted, entries)
	// The stable sort keeps duplicates in input order, so keeping only the
	// last of each run of equal keys preserves newest-write-wins.
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	b := newBuilder(gen, len(sorted))
	for i, e := range sorted {
		if i+1 < len(sorted) && sorted[i+1].Key == e.Key {
			continue
		}
		b.add(e.Key, e.Fields)
	}
	b.t.finalize(ov, fpp)
	return b.t
}

func entry(k, v string) slab.Entry {
	return slab.Entry{Key: k, Fields: slab.View([][]byte{[]byte(v)})}
}

func TestBuildSortsAndGets(t *testing.T) {
	tb := Build(1, []slab.Entry{entry("c", "3"), entry("a", "1"), entry("b", "2")}, ov, 0.01)
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, ok := tb.Get(k); !ok {
			t.Fatalf("Get(%q) missing", k)
		}
	}
	if _, ok := tb.Get("z"); ok {
		t.Fatal("found absent key")
	}
	min, max := tb.KeyRange()
	if min != "a" || max != "c" {
		t.Fatalf("range = [%s,%s], want [a,c]", min, max)
	}
}

func TestBuildDeduplicatesKeepingLast(t *testing.T) {
	tb := Build(1, []slab.Entry{entry("k", "old"), entry("k", "new")}, ov, 0.01)
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	v, _ := tb.Get("k")
	if string(v.Field(0)) != "new" {
		t.Fatalf("value = %s, want new (last write wins)", v.Field(0))
	}
}

func TestMayContainRespectsRange(t *testing.T) {
	tb := Build(1, []slab.Entry{entry("m", "1"), entry("p", "2")}, ov, 0.01)
	may := func(k string) bool { return tb.MayContain(k, bloom.HashKey(k)) }
	if may("a") {
		t.Fatal("key below range should be excluded without a filter probe")
	}
	if may("z") {
		t.Fatal("key above range should be excluded")
	}
	if !may("m") || !may("p") {
		t.Fatal("present keys must pass the filter")
	}
}

func TestDiskBytesIncludesOverhead(t *testing.T) {
	// one entry: key "kk" (2) + perEntry 10 + 2 cells of 5 bytes + 2*20.
	e := slab.Entry{Key: "kk", Fields: slab.View([][]byte{[]byte("12345"), []byte("67890")})}
	tb := Build(1, []slab.Entry{e}, ov, 0.01)
	want := int64(2 + 10 + 5 + 20 + 5 + 20)
	if tb.DiskBytes != want {
		t.Fatalf("DiskBytes = %d, want %d", tb.DiskBytes, want)
	}
}

// scan walks a SeekIter from start and returns up to count entries.
func scan(tb *Table, start string, count int) []slab.Entry {
	var out []slab.Entry
	for it := tb.SeekIter(start); it.Valid() && len(out) < count; it.Next() {
		out = append(out, it.Entry())
	}
	return out
}

func TestScan(t *testing.T) {
	var es []slab.Entry
	for i := 0; i < 20; i++ {
		es = append(es, entry(fmt.Sprintf("k%02d", i), "v"))
	}
	tb := Build(1, es, ov, 0.01)
	got := scan(tb, "k05", 3)
	if len(got) != 3 || got[0].Key != "k05" || got[2].Key != "k07" {
		t.Fatalf("scan = %v", got)
	}
	if got := scan(tb, "k19", 10); len(got) != 1 {
		t.Fatalf("tail scan length = %d, want 1", len(got))
	}
	if got := scan(tb, "k055", 1); len(got) != 1 || got[0].Key != "k06" {
		t.Fatalf("scan from between keys = %v, want k06", got)
	}
}

func TestMergeNewestGenerationWins(t *testing.T) {
	older := Build(1, []slab.Entry{entry("k", "old"), entry("a", "1")}, ov, 0.01)
	newer := Build(2, []slab.Entry{entry("k", "new"), entry("b", "2")}, ov, 0.01)
	// Pass in arbitrary order; generation decides.
	m := Merge([]*Table{newer, older}, ov, 0.01)
	if m.Len() != 3 {
		t.Fatalf("merged Len = %d, want 3", m.Len())
	}
	v, _ := m.Get("k")
	if string(v.Field(0)) != "new" {
		t.Fatalf("merged value = %s, want new", v.Field(0))
	}
	if m.Gen != 2 {
		t.Fatalf("merged gen = %d, want 2", m.Gen)
	}
}

func TestMergeReducesDiskBytesOnOverlap(t *testing.T) {
	a := Build(1, []slab.Entry{entry("k", "1")}, ov, 0.01)
	b := Build(2, []slab.Entry{entry("k", "2")}, ov, 0.01)
	m := Merge([]*Table{a, b}, ov, 0.01)
	if m.DiskBytes >= a.DiskBytes+b.DiskBytes {
		t.Fatalf("merge of duplicates did not reclaim space: %d >= %d", m.DiskBytes, a.DiskBytes+b.DiskBytes)
	}
}

func TestEmptyTable(t *testing.T) {
	tb := Build(1, nil, ov, 0.01)
	if tb.Len() != 0 || tb.MayContain("x", bloom.HashKey("x")) {
		t.Fatal("empty table misbehaves")
	}
	if got := scan(tb, "", 10); len(got) != 0 {
		t.Fatal("scan of empty table returned entries")
	}
}

// Property: merging two tables yields exactly the union of keys, with values
// from the newer generation on conflicts.
func TestPropertyMergeUnion(t *testing.T) {
	f := func(aKeys, bKeys []uint8) bool {
		var aes, bes []slab.Entry
		for _, k := range aKeys {
			aes = append(aes, entry(fmt.Sprintf("k%03d", k), "a"))
		}
		for _, k := range bKeys {
			bes = append(bes, entry(fmt.Sprintf("k%03d", k), "b"))
		}
		ta := Build(1, aes, ov, 0.01)
		tb := Build(2, bes, ov, 0.01)
		m := Merge([]*Table{ta, tb}, ov, 0.01)
		want := map[string]string{}
		for _, k := range aKeys {
			want[fmt.Sprintf("k%03d", k)] = "a"
		}
		for _, k := range bKeys {
			want[fmt.Sprintf("k%03d", k)] = "b"
		}
		if m.Len() != len(want) {
			return false
		}
		for k, v := range want {
			got, ok := m.Get(k)
			if !ok || string(got.Field(0)) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeMatchesReference merges random tables from several generations
// against the definition of a compaction: concatenate every input entry,
// stable-sort by (key, generation descending) and keep the first entry of
// each key. Keys overlap across tables, many share their first 16 bytes
// (so only the byte-compare fallback orders them, and some differ only
// in length past a zero byte), field shapes vary per entry, some inputs
// are empty, some generations repeat (the earlier table wins the tie),
// and half the inputs adopt a memtable's slab via FromMemtable. Every
// fourth round draws each table's keys from its own slice of the pool,
// so nothing dies and the merge adopts its inputs' payload chunks
// instead of copying them; which path ran shows in the chunks the merged
// table shares with its inputs and, after adoption, in its SlabBytes
// equalling the inputs' total. A quarter of the fields are large, so
// inputs span several chunks. Both paths must build the table the
// reference's Build does: the same entries, field bytes, shape indices
// and ends, filter answers, DiskBytes and key range.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const shared = "0123456789abcdef"
	keyPool := []string{"", "a", "a\x00", "k1", "k10", "k2", shared, shared + "\x00", shared + "\x00\x00"}
	for i := 0; i < 40; i++ {
		keyPool = append(keyPool, fmt.Sprintf("%s%d", shared, rng.Intn(1000)), fmt.Sprintf("k%04d", rng.Intn(10000)))
	}
	sort.Strings(keyPool)
	keyPool = slices.Compact(keyPool) // distinct, so disjoint draws stay disjoint
	randFields := func() [][]byte {
		fs := make([][]byte, 1+rng.Intn(3))
		for i := range fs {
			fs[i] = []byte(fmt.Sprint(rng.Intn(1 << uint(rng.Intn(30)))))
			if rng.Intn(4) == 0 { // large: inputs span several slab chunks
				fs[i] = append(fs[i], bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, rng.Intn(32<<10))...)
			}
		}
		return fs
	}
	type ent struct {
		key    string
		fields [][]byte
		gen    int
	}
	const rounds, wide = 100, 80 // rounds from wide on merge 8 to 64 inputs
	adopted, multiChunk := 0, 0
	for round := 0; round < rounds; round++ {
		disjoint := round%4 == 3
		var tables []*Table
		var all []ent
		nt := 3 + rng.Intn(4)
		if round >= wide {
			nt = 8 + rng.Intn(57)
		}
		for ti := 0; ti < nt; ti++ {
			gen := 1 + rng.Intn(4)
			n := rng.Intn(3) * rng.Intn(len(keyPool)) // a third of the inputs are empty
			m := memtable.New()
			var es []slab.Entry
			for range n {
				k := keyPool[rng.Intn(len(keyPool))]
				if disjoint {
					k = keyPool[rng.Intn(len(keyPool)/nt)*nt+ti]
				}
				f := randFields()
				m.Put(k, f)
				es = append(es, slab.Entry{Key: k, Fields: slab.View(f)})
			}
			var tab *Table
			if ti%2 == 0 {
				tab = FromMemtable(gen, m, ov, 0.01)
			} else {
				tab = Build(gen, es, ov, 0.01)
			}
			tables = append(tables, tab)
			for it := tab.SeekIter(""); it.Valid(); it.Next() {
				e := it.Entry()
				all = append(all, ent{e.Key, e.Fields.Materialize(), gen})
			}
		}
		sort.SliceStable(all, func(i, j int) bool {
			if all[i].key != all[j].key {
				return all[i].key < all[j].key
			}
			return all[i].gen > all[j].gen
		})
		var want []slab.Entry
		for i, e := range all {
			if i == 0 || all[i-1].key != e.key {
				want = append(want, slab.Entry{Key: e.key, Fields: slab.View(e.fields)})
			}
		}
		got := Merge(tables, ov, 0.01)
		ref := Build(got.Gen, want, ov, 0.01)
		nothingDied := len(want) == len(all)
		if disjoint && !nothingDied {
			t.Fatalf("round %d: disjoint inputs lost %d entries", round, len(all)-len(want))
		}
		// Adopting shares every input chunk and copies nothing, so the
		// merged table's footprint is its inputs' total; copying shares
		// none and fills one chunk of the merged table's own.
		var inputBytes int64
		for ti, tab := range tables {
			inputBytes += tab.SlabBytes()
			want := 0
			if nothingDied {
				want = tab.recs.Data.Chunks()
				multiChunk += max(0, want-1)
			}
			if n := sharedChunks(got, tab); n != want {
				t.Fatalf("round %d: merged table shares %d of input %d's %d chunks, want %d (nothing died: %v)",
					round, n, ti, tab.recs.Data.Chunks(), want, nothingDied)
			}
		}
		if nothingDied {
			adopted++
			if got.SlabBytes() != inputBytes {
				t.Fatalf("round %d: adopting merge holds %d slab bytes, inputs %d", round, got.SlabBytes(), inputBytes)
			}
		} else if got.recs.Data.Chunks() > 1 {
			t.Fatalf("round %d: copied payloads fill %d chunks, want one at most", round, got.recs.Data.Chunks())
		}
		if got.Len() != len(want) || got.DiskBytes != ref.DiskBytes || got.FilterBytes() != ref.FilterBytes() {
			t.Fatalf("round %d: Len/DiskBytes/FilterBytes = %d/%d/%d, want %d/%d/%d", round,
				got.Len(), got.DiskBytes, got.FilterBytes(), len(want), ref.DiskBytes, ref.FilterBytes())
		}
		gmin, gmax := got.KeyRange()
		rmin, rmax := ref.KeyRange()
		if gmin != rmin || gmax != rmax {
			t.Fatalf("round %d: range = [%q,%q], want [%q,%q]", round, gmin, gmax, rmin, rmax)
		}
		for i := range want {
			g, w := got.recs.Entry(got.meta[i].rec), want[i]
			if g.Key != w.Key || g.Fields.Len() != w.Fields.Len() {
				t.Fatalf("round %d entry %d = %q (%d fields), want %q (%d fields)",
					round, i, g.Key, g.Fields.Len(), w.Key, w.Fields.Len())
			}
			for f := 0; f < g.Fields.Len(); f++ {
				if string(g.Fields.Field(f)) != string(w.Fields.Field(f)) {
					t.Fatalf("round %d key %q field %d = %q, want %q", round, g.Key, f, g.Fields.Field(f), w.Fields.Field(f))
				}
			}
			// Same packed key length, field length and shape index, and
			// the same shape behind the index.
			gEnds := got.recs.Shapes.Ends(got.meta[i].rec.Shape())
			rEnds := ref.recs.Shapes.Ends(ref.meta[i].rec.Shape())
			if got.meta[i].rec.Meta != ref.meta[i].rec.Meta || fmt.Sprint(gEnds) != fmt.Sprint(rEnds) {
				t.Fatalf("round %d key %q: meta %#x ends %v, want %#x ends %v",
					round, g.Key, got.meta[i].rec.Meta, gEnds, ref.meta[i].rec.Meta, rEnds)
			}
			if !got.MayContain(w.Key, bloom.HashKey(w.Key)) {
				t.Fatalf("round %d: merged filter rejects %q", round, w.Key)
			}
		}
		for i := 0; i < 200; i++ {
			miss := fmt.Sprintf("miss%d", rng.Intn(1<<20))
			if i%2 == 1 {
				miss = keyPool[rng.Intn(len(keyPool))] + "\x01"
			}
			h := bloom.HashKey(miss)
			if got.MayContain(miss, h) != ref.MayContain(miss, h) {
				t.Fatalf("round %d: MayContain(%q) differs from the reference", round, miss)
			}
		}
	}
	if adopted < 20 || multiChunk < 20 {
		t.Fatalf("only %d of %d rounds took the adopt path, with %d chunks past their inputs' first", adopted, rounds, multiChunk)
	}
}

// sharedChunks counts tab's payload chunks that got's slab holds too.
func sharedChunks(got, tab *Table) int {
	n := 0
	for ci := 0; ci < tab.recs.Data.Chunks(); ci++ {
		c := tab.recs.Data.View(slab.Ref(ci)<<32, 0)
		for gi := 0; gi < got.recs.Data.Chunks(); gi++ {
			if unsafe.SliceData(got.recs.Data.View(slab.Ref(gi)<<32, 0)) == unsafe.SliceData(c) {
				n++
			}
		}
	}
	return n
}

func BenchmarkGet(b *testing.B) {
	var es []slab.Entry
	for i := 0; i < 100000; i++ {
		es = append(es, entry(fmt.Sprintf("key%09d", i), "0123456789"))
	}
	tb := Build(1, es, ov, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Get(fmt.Sprintf("key%09d", i%100000))
	}
}

func TestSeekIterWalksFromStart(t *testing.T) {
	var es []slab.Entry
	for i := 0; i < 20; i++ {
		es = append(es, entry(fmt.Sprintf("k%02d", i), "v"))
	}
	tb := Build(1, es, ov, 0.01)
	var keys []string
	for it := tb.SeekIter("k05"); it.Valid(); it.Next() {
		keys = append(keys, it.Entry().Key)
	}
	if len(keys) != 15 || keys[0] != "k05" || keys[14] != "k19" {
		t.Fatalf("SeekIter walked %v", keys)
	}
	if it := tb.SeekIter("k95"); it.Valid() {
		t.Fatal("iterator past maxKey is valid")
	}
}

func TestBuildSortedMatchesBuild(t *testing.T) {
	// Same logical input, once pre-sorted with adjacent duplicates (later
	// wins) and once shuffled: Build must yield the same table.
	sorted := []slab.Entry{
		entry("a", "1"), entry("b", "old"), entry("b", "new"),
		entry("c", "3"), entry("d", "4"),
	}
	shuffled := []slab.Entry{
		entry("d", "4"), entry("b", "old"), entry("a", "1"),
		entry("b", "new"), entry("c", "3"),
	}
	fast := Build(2, sorted, ov, 0.01)
	slow := Build(2, shuffled, ov, 0.01)
	if fast.Len() != slow.Len() {
		t.Fatalf("Len = %d, want %d", fast.Len(), slow.Len())
	}
	if fast.DiskBytes != slow.DiskBytes {
		t.Fatalf("DiskBytes = %d, want %d", fast.DiskBytes, slow.DiskBytes)
	}
	fmin, fmax := fast.KeyRange()
	smin, smax := slow.KeyRange()
	if fmin != smin || fmax != smax {
		t.Fatalf("range = [%s,%s], want [%s,%s]", fmin, fmax, smin, smax)
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		fv, fok := fast.Get(k)
		sv, sok := slow.Get(k)
		if !fok || !sok || string(fv.Field(0)) != string(sv.Field(0)) {
			t.Fatalf("Get(%q): fast=%q,%v slow=%q,%v", k, fv.Field(0), fok, sv.Field(0), sok)
		}
	}
	if v, _ := fast.Get("b"); string(v.Field(0)) != "new" {
		t.Fatalf("duplicate key kept %q, want last write", v.Field(0))
	}
}

func TestBuildSortedNoDuplicatesIsIdentity(t *testing.T) {
	entries := []slab.Entry{entry("a", "1"), entry("b", "2"), entry("c", "3")}
	tb := Build(1, entries, ov, 0.01)
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
	got := scan(tb, "", 3)
	for i, k := range []string{"a", "b", "c"} {
		if got[i].Key != k {
			t.Fatalf("entry %d = %q, want %q", i, got[i].Key, k)
		}
	}
}

// TestFromMemtableMatchesBuildSorted pins the zero-copy flush handoff:
// adopting a frozen memtable's slab must yield a table identical in
// every modeled dimension (count, DiskBytes, key range, filter size,
// contents) to copying the same sorted entries through Build.
func TestFromMemtableMatchesBuildSorted(t *testing.T) {
	mkMem := func() *memtable.Memtable {
		m := memtable.New()
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("user%09d", i*37%500)
			m.Put(k, [][]byte{[]byte(fmt.Sprintf("f0-%05d", i)), []byte("f1")})
		}
		// Same-shape and reshaping replaces leave dead slab regions the
		// handoff must not account for.
		m.Put("user000000037", [][]byte{[]byte("f0-XXXXX"), []byte("f1")})
		m.Put("user000000074", [][]byte{[]byte("reshaped")})
		return m
	}
	mem := mkMem()
	ref := Build(3, mem.ScanAppend(nil, "", mem.Len()), ov, 0.01)
	got := FromMemtable(3, mkMem(), ov, 0.01)
	if got.Len() != ref.Len() || got.DiskBytes != ref.DiskBytes {
		t.Fatalf("Len/DiskBytes = %d/%d, want %d/%d", got.Len(), got.DiskBytes, ref.Len(), ref.DiskBytes)
	}
	gmin, gmax := got.KeyRange()
	rmin, rmax := ref.KeyRange()
	if gmin != rmin || gmax != rmax {
		t.Fatalf("range = [%s,%s], want [%s,%s]", gmin, gmax, rmin, rmax)
	}
	if got.FilterBytes() != ref.FilterBytes() {
		t.Fatalf("filter bytes = %d, want %d", got.FilterBytes(), ref.FilterBytes())
	}
	ri := ref.SeekIter("")
	for gi := got.SeekIter(""); gi.Valid(); gi.Next() {
		ge, re := gi.Entry(), ri.Entry()
		if ge.Key != re.Key || ge.Fields.Len() != re.Fields.Len() {
			t.Fatalf("entry %q vs %q", ge.Key, re.Key)
		}
		for i := 0; i < ge.Fields.Len(); i++ {
			if string(ge.Fields.Field(i)) != string(re.Fields.Field(i)) {
				t.Fatalf("key %q field %d = %q, want %q", ge.Key, i, ge.Fields.Field(i), re.Fields.Field(i))
			}
		}
		ri.Next()
	}
	if ri.Valid() {
		t.Fatal("reference has more entries than the handoff table")
	}
}

// TestFromRunsMatchesFlushAndMerge buffers random records in batches
// (runs) and requires the table built from them (FromBatch and Finish
// for one run, Merge for several) to be, field by field, the table that
// flushing each run's records through a memtable and merging the flushed
// tables builds: entries, shapes, payload chunks, filter, key range and
// DiskBytes. One batch is reused for every run, as a load reuses it. Keys
// share long prefixes, so the sort and the merge compare key bytes past
// the prefix pair; a third of them carry a second field, so tables intern
// several shapes. A key repeated within a run panics in FromBatch, and a
// key repeated across runs leaves the merge short of their entries.
func TestFromRunsMatchesFlushAndMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	type rec struct {
		key    string
		fields [][]byte
	}
	for round := 0; round < 40; round++ {
		k := 1 + rng.Intn(6)
		perm := rng.Perm(k * 400)
		var batch slab.Batch
		runTables := make([]*Table, k)
		flushed := make([]*Table, k)
		for i := range runTables {
			var recs []rec
			for _, id := range perm[i*400 : i*400+50+rng.Intn(350)] {
				f := [][]byte{[]byte(fmt.Sprintf("v%0*d", 1+rng.Intn(40), id))}
				if id%3 == 0 {
					f = append(f, []byte("extra"))
				}
				recs = append(recs, rec{fmt.Sprintf("tenant/%04d/series/%08d", id%7, id), f})
			}
			m := memtable.New()
			for _, r := range recs {
				batch.Append(r.key, r.fields)
				m.Put(r.key, r.fields)
			}
			// Runs are listed newest first, as a merge's inputs are.
			runTables[i] = FromBatch(k-i, &batch, ov)
			flushed[i] = FromMemtable(k-i, m, ov, 0.01)
		}
		want, got := flushed[0], runTables[0]
		if k > 1 {
			want, got = Merge(flushed, ov, 0.01), Merge(runTables, ov, 0.01)
		} else {
			got.Finish(0.01)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (%d runs): the runs built a different table", round, k)
		}
	}

	var dup slab.Batch
	for _, key := range []string{"b", "a", "b"} {
		dup.Append(key, [][]byte{[]byte(key)})
	}
	mustPanic(t, "a run repeats a key", func() { FromBatch(1, &dup, ov) })
	var a, b slab.Batch
	for _, key := range []string{"a", "c", "e"} {
		a.Append(key, nil)
	}
	for _, key := range []string{"b", "e"} {
		b.Append(key, nil)
	}
	if n := Merge([]*Table{FromBatch(2, &a, ov), FromBatch(1, &b, ov)}, ov, 0.01).Len(); n != 4 {
		t.Fatalf("merging runs that share a key kept %d entries, want 4", n)
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

// BenchmarkSSTableMerge measures a compaction of four overlapping tables
// of 25k entries each over the benchmark's key and field shapes: entries
// die, so the merge copies the survivors.
func BenchmarkSSTableMerge(b *testing.B) {
	benchMerge(b, 2) // consecutive tables overlap by half their key range
}

// BenchmarkSSTableMergeDisjoint measures a compaction of four tables of
// 25k distinct keys each, the load phase's case: nothing dies, so the
// merge adopts its inputs' payload chunks.
func BenchmarkSSTableMergeDisjoint(b *testing.B) {
	benchMerge(b, 1)
}

// benchMerge merges four 25k-entry tables whose key ranges start
// perTable/stride apart.
func benchMerge(b *testing.B, stride int) {
	const perTable = 25000
	fields := slab.View([][]byte{
		[]byte("0123456780"), []byte("0123456781"), []byte("0123456782"),
		[]byte("0123456783"), []byte("0123456784"),
	})
	tables := make([]*Table, 4)
	for ti := range tables {
		es := make([]slab.Entry, perTable)
		for i := range es {
			es[i] = slab.Entry{Key: fmt.Sprintf("user%021d", (ti*perTable/stride+i)*7919), Fields: fields}
		}
		tables[ti] = Build(ti+1, es, ov, 0.01)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge(tables, ov, 0.01)
	}
}
