package memtable

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/slab"
)

func f1(s string) [][]byte { return [][]byte{[]byte(s)} }

func field0(e slab.Entry) string { return string(e.Fields.Field(0)) }

func TestPutGet(t *testing.T) {
	m := New()
	m.Put("b", f1("vb"))
	m.Put("a", f1("va"))
	m.Put("c", f1("vc"))
	for _, k := range []string{"a", "b", "c"} {
		v, ok := m.Get(k)
		if !ok || string(v.Field(0)) != "v"+k {
			t.Fatalf("Get(%q) = %v, %v", k, v, ok)
		}
	}
	if _, ok := m.Get("d"); ok {
		t.Fatal("Get of absent key succeeded")
	}
}

func TestPutReplaces(t *testing.T) {
	m := New()
	m.Put("k", f1("v1"))
	m.Put("k", f1("v2"))
	if m.Len() != 1 {
		t.Fatalf("Len = %d after replace, want 1", m.Len())
	}
	v, _ := m.Get("k")
	if string(v.Field(0)) != "v2" {
		t.Fatalf("value = %s, want v2", v.Field(0))
	}
}

func TestScanOrderedFromStart(t *testing.T) {
	m := New()
	for i := 9; i >= 0; i-- {
		m.Put(fmt.Sprintf("k%02d", i), f1("v"))
	}
	// The rows land after what dst already holds.
	got := m.ScanAppend(m.ScanAppend(nil, "k00", 1), "k03", 4)
	if len(got) != 5 {
		t.Fatalf("scan returned %d entries, want 5", len(got))
	}
	want := []string{"k00", "k03", "k04", "k05", "k06"}
	for i, e := range got {
		if e.Key != want[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, e.Key, want[i])
		}
	}
}

func TestScanStartBetweenKeys(t *testing.T) {
	m := New()
	m.Put("a", f1("v"))
	m.Put("c", f1("v"))
	got := m.ScanAppend(nil, "b", 10)
	if len(got) != 1 || got[0].Key != "c" {
		t.Fatalf("scan from between keys = %v, want [c]", got)
	}
}

func TestScanPastEnd(t *testing.T) {
	m := New()
	m.Put("a", f1("v"))
	if got := m.ScanAppend(nil, "z", 5); len(got) != 0 {
		t.Fatalf("scan past end returned %v", got)
	}
}

func TestBytesAccounting(t *testing.T) {
	m := New()
	m.Put("key", [][]byte{[]byte("12345"), []byte("67890")}) // 3+5+5 = 13
	if m.Bytes() != 13 {
		t.Fatalf("Bytes = %d, want 13", m.Bytes())
	}
	m.Put("key", [][]byte{[]byte("1")}) // 3+1 = 4
	if m.Bytes() != 4 {
		t.Fatalf("Bytes after replace = %d, want 4", m.Bytes())
	}
}

func TestAllReturnsSorted(t *testing.T) {
	m := New()
	keys := []string{"q", "a", "z", "m", "b"}
	for _, k := range keys {
		m.Put(k, f1("v"))
	}
	all := m.ScanAppend(nil, "", m.Len())
	if len(all) != len(keys) {
		t.Fatalf("full scan returned %d entries, want %d", len(all), len(keys))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Key < all[j].Key }) {
		t.Fatalf("full scan not sorted: %v", all)
	}
}

// A scan stops at its count and appends to the caller's buffer.
func TestIterEarlyStop(t *testing.T) {
	m := New()
	for i := 0; i < 10; i++ {
		m.Put(fmt.Sprintf("k%d", i), f1("v"))
	}
	got := m.ScanAppend([]slab.Entry{{Key: "x"}}, "", 3)
	if len(got) != 4 || got[0].Key != "x" || got[1].Key != "k0" || got[3].Key != "k2" {
		t.Fatalf("ScanAppend(count 3) after one entry = %v, want x, k0, k1, k2", got)
	}
}

// Property: the memtable agrees with a reference map and a full scan is sorted.
func TestPropertyAgainstMap(t *testing.T) {
	f := func(ops []struct {
		K string
		V string
	}) bool {
		m := New()
		ref := map[string]string{}
		for _, op := range ops {
			m.Put(op.K, f1(op.V))
			ref[op.K] = op.V
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := m.Get(k)
			if !ok || string(got.Field(0)) != v {
				return false
			}
		}
		all := m.ScanAppend(nil, "", m.Len())
		return sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Scan(start, n) equals the reference-sorted slice filtered to
// keys >= start, truncated to n.
func TestPropertyScanMatchesSortedRef(t *testing.T) {
	f := func(keys []string, start string, n8 uint8) bool {
		n := int(n8%16) + 1
		m := New()
		ref := map[string]bool{}
		for _, k := range keys {
			m.Put(k, f1("v"))
			ref[k] = true
		}
		var want []string
		for k := range ref {
			if k >= start {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		if len(want) > n {
			want = want[:n]
		}
		got := m.ScanAppend(nil, start, n)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPutAllocBudget pins the arena contract: a steady-state insert
// performs no per-operation heap allocation — only the amortized chunk
// allocations, well under 0.1 allocs/op.
func TestPutAllocBudget(t *testing.T) {
	const n = 4096
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%013d", i)
	}
	fields := [][]byte{
		[]byte("0123456780"), []byte("0123456781"), []byte("0123456782"),
		[]byte("0123456783"), []byte("0123456784"),
	}
	m := New()
	i := 0
	avg := testing.AllocsPerRun(n-1, func() {
		m.Put(keys[i], fields)
		i++
	})
	if avg > 0.1 {
		t.Fatalf("Put allocates %.3f allocs/op in steady state, want amortized ~0", avg)
	}
}

// TestReplaceAllocBudget pins that a same-shape replace copies in place:
// zero allocations, not even amortized arena growth.
func TestReplaceAllocBudget(t *testing.T) {
	m := New()
	m.Put("key0000000000001", [][]byte{[]byte("0123456789")})
	repl := [][]byte{[]byte("9876543210")}
	avg := testing.AllocsPerRun(1000, func() {
		m.Put("key0000000000001", repl)
	})
	if avg != 0 {
		t.Fatalf("same-shape replace allocates %.3f allocs/op, want 0", avg)
	}
	if m.Len() != 1 || m.Bytes() != 26 {
		t.Fatalf("after replaces: Len=%d Bytes=%d, want 1/26", m.Len(), m.Bytes())
	}
}

// TestPutCopiesFields pins the copy-on-ingest contract: the memtable owns
// its payload bytes, so mutating (or reusing) the caller's buffer after
// Put must not change stored values.
func TestPutCopiesFields(t *testing.T) {
	m := New()
	buf := [][]byte{[]byte("aaaa"), []byte("bbbb")}
	m.Put("k1", buf)
	copy(buf[0], "XXXX")
	copy(buf[1], "YYYY")
	m.Put("k2", buf)
	v1, _ := m.Get("k1")
	v2, _ := m.Get("k2")
	if string(v1.Field(0)) != "aaaa" || string(v1.Field(1)) != "bbbb" {
		t.Fatalf("k1 = %q/%q: stored value aliased the caller's buffer", v1.Field(0), v1.Field(1))
	}
	if string(v2.Field(0)) != "XXXX" || string(v2.Field(1)) != "YYYY" {
		t.Fatalf("k2 = %q/%q, want the mutated buffer's contents", v2.Field(0), v2.Field(1))
	}
}

// TestReplaceDifferentShape covers the slab-recarve branch: replacing
// with a different field count or size must not corrupt earlier values.
func TestReplaceDifferentShape(t *testing.T) {
	m := New()
	m.Put("a", [][]byte{[]byte("0123456789")})
	m.Put("b", [][]byte{[]byte("0123456789")})
	m.Put("a", [][]byte{[]byte("xy"), []byte("longer-than-before")})
	va, _ := m.Get("a")
	vb, _ := m.Get("b")
	if va.Len() != 2 || string(va.Field(0)) != "xy" || string(va.Field(1)) != "longer-than-before" {
		t.Fatalf("a = %q/%q", va.Field(0), va.Field(1))
	}
	if vb.Len() != 1 || string(vb.Field(0)) != "0123456789" {
		t.Fatalf("b = %q: neighbor corrupted by reshaped replace", vb.Field(0))
	}
	if m.Bytes() != 1+20+1+10 {
		t.Fatalf("Bytes = %d, want 32", m.Bytes())
	}
}

// refTable is the op-for-op reference model for TestSlabLayoutEquivalence:
// a map plus payload accounting with the PR-4 memtable's exact semantics.
type refTable struct {
	vals  map[string][]string
	bytes int64
}

func (r *refTable) put(key string, fields [][]byte) {
	var n int64
	fs := make([]string, len(fields))
	for i, f := range fields {
		fs[i] = string(f)
		n += int64(len(f))
	}
	if old, ok := r.vals[key]; ok {
		for _, f := range old {
			r.bytes -= int64(len(f))
		}
	} else {
		r.bytes += int64(len(key))
	}
	r.vals[key] = fs
	r.bytes += n
}

func (r *refTable) sortedKeys() []string {
	ks := make([]string, 0, len(r.vals))
	for k := range r.vals {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestSlabLayoutEquivalence pins the slab-backed memtable against the
// PR-4 layout's observable behavior op-for-op: after every operation of
// a seeded random workload (inserts, same-shape replaces, reshaping
// replaces, point gets, scans), Len/Bytes/Get/Scan/SeekIter must
// agree exactly with a reference model implementing the documented PR-4
// semantics. This is the contract that makes the layout swap host-side
// only: Bytes() drives flush timing, key order drives sstable
// contents, and both must be bit-for-bit what the pointer-based
// implementation produced.
func TestSlabLayoutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	m := New()
	ref := &refTable{vals: map[string][]string{}}
	randFields := func() [][]byte {
		n := 1 + rng.Intn(4)
		fs := make([][]byte, n)
		for i := range fs {
			b := make([]byte, rng.Intn(20))
			for j := range b {
				b[j] = byte('a' + rng.Intn(26))
			}
			fs[i] = b
		}
		return fs
	}
	checkEntry := func(op int, e slab.Entry, key string) {
		want := ref.vals[key]
		if e.Fields.Len() != len(want) {
			t.Fatalf("op %d: entry %q has %d fields, want %d", op, key, e.Fields.Len(), len(want))
		}
		for i, w := range want {
			if string(e.Fields.Field(i)) != w {
				t.Fatalf("op %d: entry %q field %d = %q, want %q", op, key, i, e.Fields.Field(i), w)
			}
		}
	}
	for op := 0; op < 3000; op++ {
		key := fmt.Sprintf("user%09d", rng.Intn(400))
		switch rng.Intn(4) {
		case 0, 1: // insert or replace
			f := randFields()
			m.Put(key, f)
			ref.put(key, f)
		case 2: // point get
			v, ok := m.Get(key)
			_, wok := ref.vals[key]
			if ok != wok {
				t.Fatalf("op %d: Get(%q) present=%v, want %v", op, key, ok, wok)
			}
			if ok {
				checkEntry(op, slab.Entry{Key: key, Fields: v}, key)
			}
		case 3: // scan from a random start
			count := 1 + rng.Intn(8)
			got := m.ScanAppend(nil, key, count)
			var want []string
			for _, k := range ref.sortedKeys() {
				if k >= key && len(want) < count {
					want = append(want, k)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("op %d: Scan(%q,%d) len %d, want %d", op, key, count, len(got), len(want))
			}
			for i, e := range got {
				if e.Key != want[i] {
					t.Fatalf("op %d: Scan[%d] = %q, want %q", op, i, e.Key, want[i])
				}
				checkEntry(op, e, e.Key)
			}
		}
		if m.Len() != len(ref.vals) {
			t.Fatalf("op %d: Len = %d, want %d", op, m.Len(), len(ref.vals))
		}
		if m.Bytes() != ref.bytes {
			t.Fatalf("op %d: Bytes = %d, want %d", op, m.Bytes(), ref.bytes)
		}
	}
	// Full-table sweep: a full scan and SeekIter("") agree with the model.
	keys := ref.sortedKeys()
	all := m.ScanAppend(nil, "", m.Len())
	if len(all) != len(keys) {
		t.Fatalf("full scan len = %d, want %d", len(all), len(keys))
	}
	it := m.SeekIter("")
	for i, k := range keys {
		if all[i].Key != k {
			t.Fatalf("full scan[%d] = %q, want %q", i, all[i].Key, k)
		}
		checkEntry(-1, all[i], k)
		if !it.Valid() || it.Entry().Key != k {
			t.Fatalf("iterator at %d: valid=%v, want key %q", i, it.Valid(), k)
		}
		it.Next()
	}
	if it.Valid() {
		t.Fatal("iterator valid past the last key")
	}
}

func TestFreezeHandsOffEntries(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		m.Put(fmt.Sprintf("k%03d", i), f1(fmt.Sprintf("v%d", i)))
	}
	var keys []string
	recs := m.Freeze(func(e FlushEntry) {
		keys = append(keys, m.recs.Key(e.Rec))
	})
	if len(keys) != 100 || !sort.StringsAreSorted(keys) {
		t.Fatalf("Freeze yielded %d keys (sorted=%v)", len(keys), sort.StringsAreSorted(keys))
	}
	// The handed-off slab resolves the same payload the memtable held.
	v, _ := m.Get("k042")
	got := recs.Data.View(0, 1) // probe: slab is alive and indexable
	_ = got
	if string(v.Field(0)) != "v42" {
		t.Fatalf("frozen memtable Get = %q", v.Field(0))
	}
	if recs.Shapes.Len() == 0 {
		t.Fatal("shape table handed off empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put after Freeze did not panic")
		}
	}()
	m.Put("new", f1("v"))
}

// TestDeepTreesMatchReference drives key sets large enough to build two
// or more inner levels through the reference model: keys in append order
// (every split is the append split), hashed keys (half splits), and
// keys that share their first 16 bytes so every slot compare ties on
// the prefix pair and falls back to the key bytes. Replaces of both
// kinds are mixed in after the load.
func TestDeepTreesMatchReference(t *testing.T) {
	const n = 20000
	shared := "0123456789abcdef" // exactly the 16 prefix bytes
	sets := map[string]func(i int) string{
		"append":        func(i int) string { return fmt.Sprintf("key%09d", i) },
		"hashed":        hashedKey,
		"shared-prefix": func(i int) string { return fmt.Sprintf("%s%07d", shared, i*7919%n) },
	}
	for name, key := range sets {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			m := New()
			ref := &refTable{vals: map[string][]string{}}
			for i := 0; i < n; i++ {
				f := f1(fmt.Sprintf("v%d", i%7))
				m.Put(key(i), f)
				ref.put(key(i), f)
			}
			for i := 0; i < n/10; i++ {
				k := key(rng.Intn(n))
				f := f1(fmt.Sprintf("w%d", i%7)) // same shape as the load
				if i%3 == 0 {
					f = [][]byte{[]byte("reshaped"), []byte(k)}
				}
				m.Put(k, f)
				ref.put(k, f)
			}
			if m.height < 2 {
				t.Fatalf("height = %d, want >= 2 inner levels", m.height)
			}
			checkModel(t, m, ref, rng)
		})
	}
}

// checkModel compares every observable of m against ref: Len, Bytes,
// Get of each key and of absent neighbours, a full scan, a full SeekIter walk,
// and Scans from random present and absent starts.
func checkModel(t *testing.T, m *Memtable, ref *refTable, rng *rand.Rand) {
	t.Helper()
	keys := ref.sortedKeys()
	if m.Len() != len(keys) || m.Bytes() != ref.bytes {
		t.Fatalf("Len/Bytes = %d/%d, want %d/%d", m.Len(), m.Bytes(), len(keys), ref.bytes)
	}
	same := func(e slab.Entry, k string) bool {
		want := ref.vals[k]
		if e.Key != k || e.Fields.Len() != len(want) {
			return false
		}
		for i, w := range want {
			if string(e.Fields.Field(i)) != w {
				return false
			}
		}
		return true
	}
	for _, k := range keys {
		v, ok := m.Get(k)
		if !ok || !same(slab.Entry{Key: k, Fields: v}, k) {
			t.Fatalf("Get(%q) = %v, %v", k, v, ok)
		}
		if _, ok := m.Get(k + "\x00"); ok {
			t.Fatalf("Get(%q) found an absent key", k+"\x00")
		}
	}
	all := m.ScanAppend(nil, "", m.Len())
	it := m.SeekIter("")
	for i, k := range keys {
		if !same(all[i], k) {
			t.Fatalf("full scan[%d] = %q, want %q", i, all[i].Key, k)
		}
		if !it.Valid() || !same(it.Entry(), k) {
			t.Fatalf("iterator at %d: valid=%v, want key %q", i, it.Valid(), k)
		}
		it.Next()
	}
	if len(all) != len(keys) || it.Valid() {
		t.Fatalf("full scan len = %d (iterator valid past end: %v), want %d", len(all), it.Valid(), len(keys))
	}
	for i := 0; i < 500; i++ {
		start := keys[rng.Intn(len(keys))]
		if i%2 == 1 {
			start = start[:rng.Intn(len(start)+1)] // absent: a prefix sorts first
		}
		count := 1 + rng.Intn(200)
		lo := sort.SearchStrings(keys, start)
		want := keys[lo:min(lo+count, len(keys))]
		got := m.ScanAppend(nil, start, count)
		if len(got) != len(want) {
			t.Fatalf("Scan(%q,%d) len %d, want %d", start, count, len(got), len(want))
		}
		for j, e := range got {
			if !same(e, want[j]) {
				t.Fatalf("Scan(%q)[%d] = %q, want %q", start, j, e.Key, want[j])
			}
		}
	}
}

// TestNodeBytesPerEntry pins the tree's node overhead (SlabBytes minus the
// payload slab) at or below the skip list it replaced, which spent a
// 5-word node header plus a geometric(1/4) tower (4/3 words expected) on
// every entry, 52.4 bytes/entry on both loads here once chunk padding is
// counted. Append-order loads pack every leaf; hashed loads leave leaves
// about ln 2 full.
func TestNodeBytesPerEntry(t *testing.T) {
	const n = 100000
	loads := map[string]func(i int) string{
		"sequential": func(i int) string { return fmt.Sprintf("key%09d", i) },
		"random":     hashedKey,
	}
	for name, key := range loads {
		m := New()
		for i := 0; i < n; i++ {
			m.Put(key(i), f1("0123456789"))
		}
		perEntry := float64(m.SlabBytes()-m.recs.Data.Allocated()) / n
		t.Logf("%s: %.1f node bytes/entry", name, perEntry)
		if perEntry > 51 {
			t.Errorf("%s load: %.1f node bytes/entry, want <= 51 (the skip list's)", name, perEntry)
		}
	}
}

// BenchmarkMemtablePut measures the steady-state insert path with keys
// built outside the timed loop, so the reported allocs/op are the
// memtable's own (arena nodes, field copies), not the caller's key
// construction.
func BenchmarkMemtablePut(b *testing.B) {
	const pool = 1 << 20
	keys := make([]string, pool)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%013d", i)
	}
	fields := [][]byte{
		[]byte("0123456780"), []byte("0123456781"), []byte("0123456782"),
		[]byte("0123456783"), []byte("0123456784"),
	}
	m := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(keys[i%pool], fields)
	}
}

// hashedKey builds record i's YCSB-style key the way store.Key does
// (store cannot be imported here): "user" plus the zero-padded 21-digit
// decimal of a bijective 64-bit mix of i, 25 bytes in all.
func hashedKey(i int) string {
	h := uint64(i)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return fmt.Sprintf("user%021d", h)
}

// BenchmarkMemtableGet measures the point-read path the YCSB read
// workloads drive: 100k hashed 25-byte keys, looked up in random order,
// with keys prebuilt outside the loop.
func BenchmarkMemtableGet(b *testing.B) {
	const n = 100000
	m := New()
	fields := [][]byte{
		[]byte("0123456780"), []byte("0123456781"), []byte("0123456782"),
		[]byte("0123456783"), []byte("0123456784"),
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = hashedKey(i)
		m.Put(keys[i], fields)
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(keys[i%n])
	}
}

// BenchmarkMemtableScan measures the iterator walk over the bottom
// level: one seek plus a fixed-length cursor advance per iteration, the
// shape of the LSM scan path's memtable source.
func BenchmarkMemtableScan(b *testing.B) {
	const n = 100000
	keys := make([]string, n)
	m := New()
	for i := range keys {
		keys[i] = fmt.Sprintf("key%09d", i*7919%n)
		m.Put(keys[i], [][]byte{[]byte("0123456789")})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := m.SeekIter(keys[i%n])
		for j := 0; j < 100 && it.Valid(); j++ {
			e := it.Entry()
			_ = e.Fields
			it.Next()
		}
	}
}
