package slab

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

func TestAllocViewRoundTrip(t *testing.T) {
	var s Slab
	type region struct {
		ref Ref
		val []byte
	}
	var regions []region
	for i := 0; i < 1000; i++ {
		val := []byte(fmt.Sprintf("value-%04d", i))
		ref, dst := s.Alloc(len(val))
		copy(dst, val)
		regions = append(regions, region{ref, val})
	}
	for _, r := range regions {
		if got := s.View(r.ref, len(r.val)); !bytes.Equal(got, r.val) {
			t.Fatalf("View(%#x) = %q, want %q", r.ref, got, r.val)
		}
		if got := s.String(r.ref, len(r.val)); got != string(r.val) {
			t.Fatalf("String(%#x) = %q, want %q", r.ref, got, r.val)
		}
	}
}

func TestAllocSpansChunks(t *testing.T) {
	var s Slab
	big := make([]byte, chunkBytes-10)
	for i := range big {
		big[i] = byte(i)
	}
	r1 := s.Append(big)
	r2 := s.Append([]byte("after-boundary")) // does not fit in chunk 0
	if !bytes.Equal(s.View(r1, len(big)), big) {
		t.Fatal("first region corrupted after chunk rollover")
	}
	if got := s.String(r2, 14); got != "after-boundary" {
		t.Fatalf("second region = %q", got)
	}
	if len(s.chunks) != 2 {
		t.Fatalf("chunks = %d, want 2", len(s.chunks))
	}
}

func TestAllocOversize(t *testing.T) {
	var s Slab
	huge := make([]byte, chunkBytes*2+17)
	huge[0], huge[len(huge)-1] = 0xAA, 0xBB
	ref := s.Append(huge)
	got := s.View(ref, len(huge))
	if got[0] != 0xAA || got[len(got)-1] != 0xBB {
		t.Fatal("oversize region corrupted")
	}
	if s.Allocated() < int64(len(huge)) {
		t.Fatalf("Allocated = %d, want >= %d", s.Allocated(), len(huge))
	}
}

func TestAllocZeroLength(t *testing.T) {
	var s Slab
	ref, dst := s.Alloc(0)
	if len(dst) != 0 {
		t.Fatalf("Alloc(0) returned %d bytes", len(dst))
	}
	if got := s.String(ref, 0); got != "" {
		t.Fatalf("empty String = %q", got)
	}
}

// TestAdoptCapsChunks pins Adopt's contract: a ref r into the adopted
// slab reads the same bytes as r + base<<32 in the adopter, the
// adopter's Allocated grows by the adopted chunks' capacity, and no later
// Alloc on the adopter writes into any byte of the adopted chunks, spare
// capacity past the adoptee's last region included.
func TestAdoptCapsChunks(t *testing.T) {
	var s, o Slab
	s.AppendString("adopter's own region")
	type region struct {
		ref Ref
		val string
	}
	var regions []region
	for i := 0; i < 3000; i++ { // spans chunks; the last one is part full
		val := fmt.Sprintf("adopted-%06d", i*7919)
		regions = append(regions, region{o.AppendString(val), val})
	}
	before := make([][]byte, len(o.chunks))
	for i, c := range o.chunks {
		before[i] = bytes.Clone(c[:cap(c)])
	}
	own, theirs := s.Allocated(), o.Allocated()
	base := s.Adopt(&o)
	if base != 1 || s.Chunks() != 1+o.Chunks() {
		t.Fatalf("base = %d with %d chunks after Adopt, want 1 and %d", base, s.Chunks(), 1+o.Chunks())
	}
	if s.Allocated() != own+theirs {
		t.Fatalf("Allocated = %d, want %d + %d", s.Allocated(), own, theirs)
	}
	for _, n := range []int{1, 100, chunkBytes / 2, chunkBytes, 3} {
		_, dst := s.Alloc(n)
		for i := range dst {
			dst[i] = 0xFF
		}
	}
	for i, c := range o.chunks {
		if !bytes.Equal(c[:cap(c)], before[i]) {
			t.Fatalf("adopted chunk %d changed under the adopter's Alloc", i)
		}
	}
	for _, r := range regions {
		if got := s.String(r.ref+Ref(base)<<32, len(r.val)); got != r.val {
			t.Fatalf("rebased ref %#x reads %q, want %q", r.ref, got, r.val)
		}
	}
}

// TestGrow pins the helper a copying compaction uses: Grow opens a chunk
// of exactly the size asked for when the open chunk lacks room, Alloc
// then fills that chunk, and Grow never counts an adopted chunk's spare
// room as room.
func TestGrow(t *testing.T) {
	var s Slab
	s.AppendString("small")
	s.Grow(100) // fits the open chunk: no new chunk
	if s.Chunks() != 1 {
		t.Fatalf("Grow with room opened a chunk: %d chunks", s.Chunks())
	}
	const n = chunkBytes + 12345
	before := s.Allocated()
	s.Grow(n)
	if s.Chunks() != 2 || s.Allocated() != before+n {
		t.Fatalf("Grow(%d): %d chunks, Allocated %d, want 2 and %d", n, s.Chunks(), s.Allocated(), before+n)
	}
	for i := 0; i < n/5; i++ {
		ref, _ := s.Alloc(5)
		if ref>>32 != 1 {
			t.Fatalf("region %d went to chunk %d, want the grown chunk 1", i, ref>>32)
		}
	}
	var o Slab
	o.AppendString("part full")
	var a Slab
	a.Adopt(&o)
	a.Grow(1) // the adopted chunk has room, but is sealed
	if a.Chunks() != 2 {
		t.Fatalf("Grow wrote into an adopted chunk: %d chunks, want 2", a.Chunks())
	}
}

func TestShapeInternReuses(t *testing.T) {
	var st ShapeTable
	f := [][]byte{[]byte("0123456789"), []byte("abcde")}
	idx1, n1 := st.Intern(f)
	idx2, n2 := st.Intern([][]byte{[]byte("XXXXXXXXXX"), []byte("YYYYY")})
	if idx1 != idx2 || n1 != 15 || n2 != 15 {
		t.Fatalf("same-layout intern: idx %d/%d len %d/%d", idx1, idx2, n1, n2)
	}
	if st.Len() != 1 {
		t.Fatalf("shapes = %d, want 1", st.Len())
	}
	idx3, _ := st.Intern([][]byte{[]byte("short")})
	if idx3 == idx1 || st.Len() != 2 {
		t.Fatalf("different layout shared a shape: idx %d, shapes %d", idx3, st.Len())
	}
	// Re-interning an older shape after the table moved on must find it.
	idx4, _ := st.Intern(f)
	if idx4 != idx1 || st.Len() != 2 {
		t.Fatalf("re-intern = %d (shapes %d), want %d (2)", idx4, st.Len(), idx1)
	}
}

func TestInternEndsMatchesIntern(t *testing.T) {
	var st ShapeTable
	idx, _ := st.Intern([][]byte{[]byte("ab"), []byte("cdef")})
	got := st.InternEnds([]uint32{2, 6})
	if got != idx {
		t.Fatalf("InternEnds = %d, want %d", got, idx)
	}
	other := st.InternEnds([]uint32{3, 6})
	if other == idx || st.Len() != 2 {
		t.Fatalf("distinct ends interned as %d (shapes %d)", other, st.Len())
	}
}

// TestFieldsViewSlabForm reads the same fields through a store's view
// (Records.Fields) and through View, which must own a copy of them.
func TestFieldsViewSlabForm(t *testing.T) {
	fields := [][]byte{[]byte("aaa"), []byte(""), []byte("cccccc")}
	var rs Records
	stored := rs.Fields(rs.Append("k", fields))
	copied := View(fields)
	for _, v := range []FieldsView{stored, copied} {
		if v.Len() != 3 || v.Bytes() != 9 {
			t.Fatalf("Len=%d Bytes=%d, want 3/9", v.Len(), v.Bytes())
		}
		for i, f := range fields {
			if !bytes.Equal(v.Field(i), f) {
				t.Fatalf("Field(%d) = %q, want %q", i, v.Field(i), f)
			}
		}
		mat := v.Materialize()
		for i, f := range fields {
			if !bytes.Equal(mat[i], f) {
				t.Fatalf("Materialize[%d] = %q, want %q", i, mat[i], f)
			}
		}
	}
	fields[0][0] = 'x'
	if string(copied.Field(0)) != "aaa" {
		t.Fatalf("View aliases its input: field 0 reads %q", copied.Field(0))
	}
}

// TestLayoutSizes pins the read path's row: a view is its payload slice
// and its offsets slice, and a scan row is a key plus a view. A second
// form of view would grow every read result and scan row.
func TestLayoutSizes(t *testing.T) {
	if n := unsafe.Sizeof(FieldsView{}); n != 48 {
		t.Fatalf("FieldsView is %d bytes, want 48", n)
	}
	if n := unsafe.Sizeof(Entry{}); n != 64 {
		t.Fatalf("Entry is %d bytes, want 64", n)
	}
}

func TestFieldsViewZero(t *testing.T) {
	var v FieldsView
	if v.Len() != 0 || v.Bytes() != 0 {
		t.Fatalf("zero view: Len=%d Bytes=%d", v.Len(), v.Bytes())
	}
	if m := v.Materialize(); m != nil {
		t.Fatalf("zero view materialized to %v", m)
	}
}

// BenchmarkSlabAppend pins the carve path: steady-state Append is one
// bounds check and a copy, with chunk allocations amortized to ~0.
func BenchmarkSlabAppend(b *testing.B) {
	payload := make([]byte, 75) // the paper's 5×15-byte record payload scale
	var s Slab
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(payload)
		if s.Allocated() > 64<<20 {
			b.StopTimer()
			s.Reset()
			b.StartTimer()
		}
	}
}

// BenchmarkShapeIntern pins the hot-path interner: a repeated layout is
// a last-match check, no allocation.
func BenchmarkShapeIntern(b *testing.B) {
	fields := [][]byte{
		[]byte("0123456780"), []byte("0123456781"), []byte("0123456782"),
		[]byte("0123456783"), []byte("0123456784"),
	}
	var st ShapeTable
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Intern(fields)
	}
}

// TestKeyPrefixMatchesBytes checks KeyPrefix against a byte-by-byte
// big-endian packing, zero padded, on every offset of short and long keys.
func TestKeyPrefixMatchesBytes(t *testing.T) {
	for _, k := range []string{"", "a", "user0123", "user0123456789012345678901", "Host000/Agent/Co\xff\x00x"} {
		for off := 0; off <= len(k)+1; off++ {
			var want uint64
			for i := 0; i < 8; i++ {
				if off+i < len(k) {
					want |= uint64(k[off+i]) << (56 - 8*i)
				}
			}
			if got := KeyPrefix(k, off); got != want {
				t.Fatalf("KeyPrefix(%q, %d) = %#x, want %#x", k, off, got, want)
			}
		}
	}
}

// ycsbPrefixItems returns n items keyed like the benchmark's records:
// "user" and 21 hashed decimal digits.
func ycsbPrefixItems(n int) ([]PrefixItem, []string) {
	keys := make([]string, n)
	items := make([]PrefixItem, n)
	for i := range keys {
		v := uint64(i)*0x9e3779b97f4a7c15 ^ 0x5bd1e995
		keys[i] = fmt.Sprintf("user%021d", v%1e19)
		items[i] = PrefixItem{Hi: KeyPrefix(keys[i], 0), Lo: KeyPrefix(keys[i], 8), I: uint32(i)}
	}
	return items, keys
}

func BenchmarkSortByPrefix(b *testing.B) {
	items, keys := ycsbPrefixItems(100_000)
	work := make([]PrefixItem, len(items))
	cmp := func(x, y uint32) int { return strings.Compare(keys[x], keys[y]) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, items)
		if !SortByPrefix(work, cmp) {
			b.Fatal("distinct keys reported as repeated")
		}
	}
}

// TestSortByPrefix checks the sort against sort.Strings on keys that tie
// on all 16 prefix bytes, keys shorter than a prefix word, hashed keys on
// both sides of the insertion-sort cutoff, and a repeated key.
func TestSortByPrefix(t *testing.T) {
	var apm []string
	for h := 0; h < 3; h++ {
		for p := 0; p < 700; p++ {
			apm = append(apm, fmt.Sprintf("Host%03d/Agent/Component/Metric|%012d", h, (p*7919)%700*15000))
		}
	}
	_, hashed := ycsbPrefixItems(5000)
	for _, tc := range []struct {
		name string
		keys []string
	}{
		{"empty", nil},
		{"one", []string{"x"}},
		{"short", []string{"b", "", "ab", "a", "a\x00", "abcdefghi", "abcdefgh", "ba"}},
		{"hashed-small", hashed[:insertionMax+1]},
		{"hashed", hashed},
		{"apm-ties", apm},
		{"repeat", append(slices.Clone(hashed[:700]), hashed[350])},
		{"repeat-tied", append(slices.Clone(apm), apm[1000])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := make([]PrefixItem, len(tc.keys))
			for i, k := range tc.keys {
				items[i] = PrefixItem{Hi: KeyPrefix(k, 0), Lo: KeyPrefix(k, 8), I: uint32(i)}
			}
			distinct := SortByPrefix(items, func(a, b uint32) int { return strings.Compare(tc.keys[a], tc.keys[b]) })
			want := slices.Clone(tc.keys)
			sort.Strings(want)
			got := make([]string, len(items))
			for i, it := range items {
				got[i] = tc.keys[it.I]
			}
			if !slices.Equal(got, want) {
				t.Fatalf("sorted keys differ from sort.Strings")
			}
			if wantDistinct := len(slices.Compact(want)) == len(tc.keys); distinct != wantDistinct {
				t.Fatalf("distinct = %v, want %v", distinct, wantDistinct)
			}
		})
	}
}
