package slab

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// randomRecord returns a key of 0 to 40 bytes and 0 to 5 fields of 0 to
// 12 bytes each, so a batch of them interns many shapes.
func randomRecord(rng *rand.Rand) (string, [][]byte) {
	key := make([]byte, rng.Intn(41))
	rng.Read(key)
	fields := make([][]byte, rng.Intn(6))
	for i := range fields {
		fields[i] = make([]byte, rng.Intn(13))
		rng.Read(fields[i])
	}
	return string(key), fields
}

// checkRecord fails unless r in rs holds key and fields, with the shape
// of fields.
func checkRecord(t *testing.T, rs *Records, r Rec, key string, fields [][]byte) {
	t.Helper()
	n := 0
	var ends []uint32
	for _, f := range fields {
		n += len(f)
		ends = append(ends, uint32(n))
	}
	if r.KeyLen() != len(key) || r.FieldsLen() != n || r.Len() != len(key)+n {
		t.Fatalf("record lengths %d+%d (%d), want %d+%d", r.KeyLen(), r.FieldsLen(), r.Len(), len(key), n)
	}
	if got := rs.Key(r); got != key {
		t.Fatalf("key %q, want %q", got, key)
	}
	if got := rs.Shapes.Ends(r.Shape()); !slices.Equal(got, ends) {
		t.Fatalf("key %q: shape %d has ends %v, want %v", key, r.Shape(), got, ends)
	}
	v := rs.Fields(r)
	if v.Len() != len(fields) || v.Bytes() != int64(n) {
		t.Fatalf("key %q: %d fields of %d bytes, want %d of %d", key, v.Len(), v.Bytes(), len(fields), n)
	}
	for i, f := range fields {
		if !bytes.Equal(v.Field(i), f) {
			t.Fatalf("key %q field %d = %q, want %q", key, i, v.Field(i), f)
		}
	}
	if e := rs.Entry(r); e.Key != key || e.Fields.Len() != len(fields) {
		t.Fatalf("entry %q with %d fields, want %q with %d", e.Key, e.Fields.Len(), key, len(fields))
	}
}

// TestBatchRoundTrip appends random records to a batch past each entry
// chunk boundary (256, 768, …, 7,936, then every 8,192) and reads every
// one back by arrival index: key, fields (through Records.Fields) and
// shape. Each fill starts with a record of no fields and one of three
// empty fields. It then takes the batch's records, which must still
// resolve, and refills the batch, which must reuse its entry chunks.
func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	type record struct {
		key    string
		fields [][]byte
	}
	const n = firstChunks + 2*batchChunk + 1 // the first entry of an eighth chunk
	var b Batch
	var recs []record
	var size int64
	fill := func(n int) {
		recs = recs[:0]
		size = 0
		for j := range n {
			key, fields := randomRecord(rng)
			switch j {
			case 0: // a record of no fields
				key, fields = "zero", nil
			case 1: // a record whose fields are all empty
				key, fields = "empty", [][]byte{{}, {}, {}}
			}
			b.Append(key, fields)
			recs = append(recs, record{key, fields})
			size += int64(len(key))
			for _, f := range fields {
				size += int64(len(f))
			}
		}
		if b.Len() != n || b.Bytes() != size {
			t.Fatalf("Len, Bytes = %d, %d; want %d, %d", b.Len(), b.Bytes(), n, size)
		}
		for j, r := range recs {
			checkRecord(t, &b.Records, b.At(uint32(j)), r.key, r.fields)
		}
	}
	fill(n)
	if b.Shapes.Len() < 100 {
		t.Fatalf("%d shapes: the records should intern many", b.Shapes.Len())
	}
	var sizes []int
	for _, c := range b.chunks {
		sizes = append(sizes, len(c))
	}
	if want := []int{256, 512, 1024, 2048, 4096, 8192, 8192, 8192}; !slices.Equal(sizes, want) {
		t.Fatalf("entry chunks of %v, want %v", sizes, want)
	}

	held := make([]Rec, n)
	for j := range held {
		held[j] = b.At(uint32(j))
	}
	chunks := slices.Clone(b.chunks)
	taken := b.Take()
	if b.Len() != 0 || b.Bytes() != 0 || b.Data.Chunks() != 0 || b.Shapes.Len() != 0 {
		t.Fatalf("Take left %d records, %d bytes, %d slab chunks, %d shapes", b.Len(), b.Bytes(), b.Data.Chunks(), b.Shapes.Len())
	}
	for j, r := range recs {
		checkRecord(t, &taken, held[j], r.key, r.fields)
	}
	fill(batchChunk)
	for i, c := range b.chunks {
		if &c[0] != &chunks[i][0] {
			t.Fatalf("entry chunk %d was reallocated after Take", i)
		}
	}
}

// TestRecordsReplace pins Replace: fields of the record's shape are
// written in place, and any other layout moves the record to a new
// region with a copy of the key, leaving the old key bytes as they were.
func TestRecordsReplace(t *testing.T) {
	var rs Records
	r := rs.Append("user42", [][]byte{[]byte("aaaa"), []byte("bb")})
	oldKey := rs.Key(r)
	same := rs.Replace(r, [][]byte{[]byte("cccc"), []byte("dd")})
	if same != r {
		t.Fatalf("same-shape Replace moved the record: %+v -> %+v", r, same)
	}
	checkRecord(t, &rs, r, "user42", [][]byte{[]byte("cccc"), []byte("dd")})
	moved := rs.Replace(r, [][]byte{[]byte("e")})
	if moved.Ref == r.Ref || moved.Shape() == r.Shape() {
		t.Fatalf("reshaping Replace kept ref %#x, shape %d", moved.Ref, moved.Shape())
	}
	checkRecord(t, &rs, moved, "user42", [][]byte{[]byte("e")})
	checkRecord(t, &rs, r, "user42", [][]byte{[]byte("cccc"), []byte("dd")})
	if oldKey != "user42" {
		t.Fatalf("the old key view reads %q", oldKey)
	}
}

// TestBatchSortMatchesSlicesSort sorts batches with Batch.Sort and
// requires slices.Sort's key order, items that name each record by its
// arrival index and carry its key's prefix pair, and a distinct result
// that is false exactly when a key repeats. The keys include ones that
// agree on all 16 prefix bytes, short ones and the empty key.
func TestBatchSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tied, hashed []string
	for i := range 3000 {
		tied = append(tied, fmt.Sprintf("Host000/Agent/Co%06d", i*7919%3000))
		hashed = append(hashed, fmt.Sprintf("user%021d", rng.Uint64()%1e19))
	}
	for _, tc := range []struct {
		name string
		keys []string
	}{
		{"empty", nil},
		{"short", []string{"b", "", "ab", "a", "a\x00", "abcdefghijklmnopq", "abcdefghijklmnop"}},
		{"tied prefixes", tied},
		{"hashed", hashed},
		{"mixed", slices.Concat(tied[:1000], hashed[:1000])},
		{"repeat", append(slices.Clone(hashed[:900]), hashed[450])},
		{"repeat with tied prefixes", append(slices.Clone(tied), tied[2000])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b Batch
			for i, k := range tc.keys {
				b.Append(k, [][]byte{[]byte(fmt.Sprint(i))})
			}
			items := make([]PrefixItem, b.Len())
			distinct := b.Sort(items)
			want := slices.Clone(tc.keys)
			slices.Sort(want)
			for k, it := range items {
				key := b.Key(b.At(it.I))
				if key != want[k] || key != tc.keys[it.I] {
					t.Fatalf("item %d names record %d, key %q; want key %q", k, it.I, key, want[k])
				}
				if it.Hi != KeyPrefix(key, 0) || it.Lo != KeyPrefix(key, 8) {
					t.Fatalf("item %d: prefix pair %#x %#x of key %q", k, it.Hi, it.Lo, key)
				}
			}
			if wantDistinct := len(slices.Compact(want)) == len(tc.keys); distinct != wantDistinct {
				t.Fatalf("distinct = %v, want %v", distinct, wantDistinct)
			}
		})
	}
}

// TestRecordOverflowPanics pins the packing's two limits: a key of 64 KiB
// and a 65,537th shape panic, and the largest key and shape index that
// fit round-trip.
func TestRecordOverflowPanics(t *testing.T) {
	var rs Records
	long := strings.Repeat("k", 0xffff)
	checkRecord(t, &rs, rs.Append(long, nil), long, nil)
	mustPanic(t, "slab: key longer than 64 KiB", func() { rs.Append(long+"k", nil) })

	// Shape indices 0 to 0xfffe hold layouts no record below has.
	rs = Records{}
	rs.Shapes.shapes = make([][]uint32, 0xffff)
	fields := [][]byte{[]byte("v")}
	r := rs.Append("a", fields)
	if r.Shape() != 0xffff {
		t.Fatalf("shape %#x, want 0xffff", r.Shape())
	}
	checkRecord(t, &rs, r, "a", fields)
	mustPanic(t, "slab: shape table overflow", func() { rs.Append("b", [][]byte{[]byte("vv")}) })
	mustPanic(t, "slab: shape table overflow", func() { r.WithShape(0x10000) })
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

// BenchmarkBatchAppend measures buffering one benchmark-shaped record (a
// 25-byte key and five 10-byte fields) in a load batch, taking the
// batch's records every 100,000 appends as a load's flush-sized cuts do:
// the payload copy plus the amortized 16-byte entry.
func BenchmarkBatchAppend(b *testing.B) {
	key := "user000000000000000000042"
	fields := [][]byte{
		[]byte("0123456780"), []byte("0123456781"), []byte("0123456782"),
		[]byte("0123456783"), []byte("0123456784"),
	}
	var batch Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Append(key, fields)
		if batch.Len() == 100_000 {
			batch.Take()
		}
	}
}
