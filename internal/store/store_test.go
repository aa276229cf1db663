package store

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hashring"
)

func TestKeyFixedWidthAndDeterministic(t *testing.T) {
	seen := map[string]int64{}
	for i := int64(0); i < 10000; i++ {
		k := Key(i)
		if len(k) != KeyBytes {
			t.Fatalf("Key(%d) = %q: %d bytes, want %d", i, k, len(k), KeyBytes)
		}
		if !strings.HasPrefix(k, "user") {
			t.Fatalf("Key(%d) = %q, want user-prefixed", i, k)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("Key(%d) == Key(%d) == %q (permute must be bijective)", i, prev, k)
		}
		seen[k] = i
		if Key(i) != k {
			t.Fatalf("Key(%d) not deterministic", i)
		}
	}
}

func TestKeyHashingSpreadsSequentialInserts(t *testing.T) {
	// Sequential record numbers must not produce lexicographically adjacent
	// keys, or ordered stores would hotspot on a single range during load.
	ascending := 0
	prev := Key(0)
	for i := int64(1); i < 1000; i++ {
		k := Key(i)
		if k > prev {
			ascending++
		}
		prev = k
	}
	// A hashed sequence should rise about half the time, never nearly always.
	if ascending > 700 {
		t.Fatalf("%d/999 sequential keys ascending; insert order leaks into key order", ascending)
	}
}

func TestMakeFieldsShapeAndDeterminism(t *testing.T) {
	for _, i := range []int64{0, 1, 12345, 999_999_999, 1_000_000_007} {
		f := MakeFields(i)
		if len(f) != NumFields {
			t.Fatalf("MakeFields(%d) has %d fields, want %d", i, len(f), NumFields)
		}
		for j, col := range f {
			if len(col) != FieldBytes {
				t.Fatalf("MakeFields(%d)[%d] = %q: %d bytes, want %d", i, j, col, len(col), FieldBytes)
			}
		}
		again := MakeFields(i)
		for j := range f {
			if string(f[j]) != string(again[j]) {
				t.Fatalf("MakeFields(%d) not deterministic at field %d", i, j)
			}
		}
	}
	// Distinct columns of one record must differ (the trailing digit).
	f := MakeFields(7)
	if string(f[0]) == string(f[1]) {
		t.Fatalf("fields 0 and 1 identical: %q", f[0])
	}
}

func TestRawRecordBytesAccounting(t *testing.T) {
	// The paper's 75-byte record: 25-byte key + 5 x 10-byte fields.
	if RawRecordBytes != 75 {
		t.Fatalf("RawRecordBytes = %d, want 75 (paper §3)", RawRecordBytes)
	}
	total := len(Key(42))
	for _, col := range MakeFields(42) {
		total += len(col)
	}
	if total != RawRecordBytes {
		t.Fatalf("key+fields = %d bytes, want RawRecordBytes = %d", total, RawRecordBytes)
	}
}

func TestKeyMatchesReferenceFormat(t *testing.T) {
	// The hand-rolled digit writer must reproduce the historical
	// fmt.Sprintf("user%021d", hashring.Fmix64(uint64(i))) format exactly — keys
	// are baked into every deterministic result.
	rng := rand.New(rand.NewSource(1))
	ids := []int64{0, 1, 42, 999, 1e9, 1<<40 + 3, -1, -12345}
	for range 1000 {
		ids = append(ids, int64(rng.Uint64()))
	}
	for _, i := range ids {
		want := fmt.Sprintf("user%021d", hashring.Fmix64(uint64(i)))
		if got := Key(i); got != want {
			t.Fatalf("Key(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestMakeFieldsSized(t *testing.T) {
	// Default size reproduces MakeFields (and its historical format) exactly.
	for _, i := range []int64{0, 7, 999_999_999, 1_000_000_007} {
		def := MakeFieldsSized(i, 0)
		ref := MakeFields(i)
		for j := range ref {
			if string(def[j]) != string(ref[j]) {
				t.Fatalf("MakeFieldsSized(%d, 0)[%d] = %q, want %q", i, j, def[j], ref[j])
			}
			if want := fmt.Sprintf("%09d%d", i%1e9, j); string(ref[j]) != want {
				t.Fatalf("MakeFields(%d)[%d] = %q, want historical %q", i, j, ref[j], want)
			}
		}
	}
	// Custom sizes change only the byte count, repeating the pattern.
	for _, size := range []int{1, 10, 25, 200} {
		f := MakeFieldsSized(42, size)
		if len(f) != NumFields {
			t.Fatalf("MakeFieldsSized(42, %d) has %d fields", size, len(f))
		}
		for j, col := range f {
			if len(col) != size {
				t.Fatalf("field %d has %d bytes, want %d", j, len(col), size)
			}
			base := MakeFieldsSized(42, FieldBytes)[j]
			for k, b := range col {
				if b != base[k%FieldBytes] {
					t.Fatalf("size-%d field %d diverges from pattern at byte %d", size, j, k)
				}
			}
		}
	}
}

// TestFillFieldsMatchesMakeFields pins that the buffer-reuse path writes
// exactly the bytes MakeFieldsSized builds, across sizes and reuse.
func TestFillFieldsMatchesMakeFields(t *testing.T) {
	var buf Fields
	for _, size := range []int{0, FieldBytes, 7, 25, 200} {
		for _, i := range []int64{0, 1, 42, 999_999_999, 1_000_000_001, -17} {
			buf = FillFields(buf, i, size)
			want := MakeFieldsSized(i, size)
			if len(buf) != len(want) {
				t.Fatalf("FillFields(%d,%d): %d fields, want %d", i, size, len(buf), len(want))
			}
			for j := range want {
				if string(buf[j]) != string(want[j]) {
					t.Fatalf("FillFields(%d,%d)[%d] = %q, want %q", i, size, j, buf[j], want[j])
				}
			}
		}
	}
}

// TestFillFieldsReusesBuffer pins that a well-shaped buffer is reused,
// not reallocated: the backing arrays must be stable across calls.
func TestFillFieldsReusesBuffer(t *testing.T) {
	buf := FillFields(nil, 1, FieldBytes)
	p0 := &buf[0][0]
	buf2 := FillFields(buf, 2, FieldBytes)
	if &buf2[0][0] != p0 {
		t.Fatal("FillFields reallocated a well-shaped buffer")
	}
	avg := testing.AllocsPerRun(1000, func() {
		buf = FillFields(buf, 7, FieldBytes)
	})
	if avg != 0 {
		t.Fatalf("FillFields reuse allocates %.3f allocs/op, want 0", avg)
	}
}

// TestMakeFieldsAllocBudget pins the slab build: one header slice plus
// one backing slab, never the historical 6 allocations.
func TestMakeFieldsAllocBudget(t *testing.T) {
	var i int64
	avg := testing.AllocsPerRun(1000, func() {
		MakeFieldsSized(i, 0)
		i++
	})
	if avg > 2 {
		t.Fatalf("MakeFieldsSized allocates %.1f allocs/op, want <= 2", avg)
	}
}

// TestCloneDeepCopies pins Fields.Clone: equal bytes, disjoint storage.
func TestCloneDeepCopies(t *testing.T) {
	f := MakeFields(3)
	c := f.Clone()
	for j := range f {
		if string(c[j]) != string(f[j]) {
			t.Fatalf("clone field %d = %q, want %q", j, c[j], f[j])
		}
	}
	copy(f[0], "XXXXXXXXXX")
	if string(c[0]) == string(f[0]) {
		t.Fatal("clone shares storage with the original")
	}
	if Fields(nil).Clone() != nil {
		t.Fatal("nil clone should be nil")
	}
}

// BenchmarkMakeFields measures the per-record field construction every
// load and insert pays (was 6 allocs/op: slice header + 5 field buffers;
// the slab build is 2: header + one backing array).
func BenchmarkMakeFields(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(MakeFields(int64(i))) != NumFields {
			b.Fatal("bad fields")
		}
	}
}

// BenchmarkStoreKey pins the win of the fmt-free key builder (was
// fmt.Sprintf: ~140 ns and 2 allocs/op; now ~43 ns and the single
// unavoidable string conversion).
func BenchmarkStoreKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(Key(int64(i))) != KeyBytes {
			b.Fatal("bad key")
		}
	}
}

// TestAppendKeyMatchesKey pins the reusable-buffer key builder against the
// allocating one: identical bytes for any record number, appended after
// whatever the buffer already holds.
func TestAppendKeyMatchesKey(t *testing.T) {
	var buf []byte
	for _, i := range []int64{0, 1, 7, 999_999, -3, 1 << 40} {
		buf = AppendKey(buf[:0], i)
		if string(buf) != Key(i) {
			t.Fatalf("AppendKey(%d) = %q, Key = %q", i, buf, Key(i))
		}
	}
	buf = append(buf[:0], "prefix"...)
	buf = AppendKey(buf, 42)
	if string(buf) != "prefix"+Key(42) {
		t.Fatalf("AppendKey did not append: %q", buf)
	}
}

// BenchmarkStoreAppendKey is BenchmarkStoreKey on the reused-buffer path
// the YCSB runner's operation loop takes against copy-on-ingest stores:
// zero allocations once the buffer exists.
func BenchmarkStoreAppendKey(b *testing.B) {
	buf := make([]byte, 0, KeyBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendKey(buf[:0], int64(i))
		if len(buf) != KeyBytes {
			b.Fatal("bad key")
		}
	}
}
