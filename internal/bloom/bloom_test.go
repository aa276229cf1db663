package bloom

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.Add(fmt.Sprintf("key%06d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.MayContain(fmt.Sprintf("key%06d", i)) {
			t.Fatalf("false negative for key%06d", i)
		}
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	f := New(10000, 0.01)
	for i := 0; i < 10000; i++ {
		f.Add(fmt.Sprintf("present%08d", i))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.MayContain(fmt.Sprintf("absent%08d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Fatalf("false positive rate %f, want <= 0.03 for 0.01 target", rate)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f := New(100, 0.01)
	for i := 0; i < 100; i++ {
		if f.MayContain(fmt.Sprintf("k%d", i)) {
			t.Fatalf("empty filter claims to contain k%d", i)
		}
	}
}

func TestDegenerateParams(t *testing.T) {
	f := New(0, -1) // must not panic; falls back to sane defaults
	f.Add("x")
	if !f.MayContain("x") {
		t.Fatal("added key not found")
	}
}

func TestSizeGrowsWithN(t *testing.T) {
	small := New(100, 0.01)
	big := New(100000, 0.01)
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("size(100k)=%d should exceed size(100)=%d", big.SizeBytes(), small.SizeBytes())
	}
}

func TestEstimatedFPPIncreasesWithFill(t *testing.T) {
	f := New(1000, 0.01)
	if f.EstimatedFPP() != 0 {
		t.Fatal("empty filter should estimate 0 fpp")
	}
	for i := 0; i < 500; i++ {
		f.Add(fmt.Sprintf("a%d", i))
	}
	half := f.EstimatedFPP()
	for i := 0; i < 1500; i++ {
		f.Add(fmt.Sprintf("b%d", i))
	}
	if over := f.EstimatedFPP(); over <= half {
		t.Fatalf("fpp should rise with fill: half=%f over=%f", half, over)
	}
}

// Property: anything added is always found.
func TestPropertyMembership(t *testing.T) {
	f := func(keys []string) bool {
		bf := New(len(keys)+1, 0.01)
		for _, k := range keys {
			bf.Add(k)
		}
		for _, k := range keys {
			if !bf.MayContain(k) {
				return false
			}
		}
		return bf.N() == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refFilter is the filter before HashKey: hash/fnv over a []byte copy of
// the key. The filter must set and test exactly its bits.
type refFilter struct {
	bits  []uint64
	nbits uint64
	k     int
}

func refHash2(key string) (uint64, uint64) {
	h1 := fnv.New64a()
	h1.Write([]byte(key))
	a := h1.Sum64()
	h1.Write([]byte{0xA5})
	return a, h1.Sum64()
}

func (f *refFilter) add(key string) {
	a, b := refHash2(key)
	for i := 0; i < f.k; i++ {
		idx := (a + uint64(i)*b) % f.nbits
		f.bits[idx/64] |= 1 << (idx % 64)
	}
}

func (f *refFilter) mayContain(key string) bool {
	a, b := refHash2(key)
	for i := 0; i < f.k; i++ {
		idx := (a + uint64(i)*b) % f.nbits
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// wraps counts the probe steps of key whose 64-bit sum a + i·b wraps.
func wraps(key string, k int) int {
	a, b := refHash2(key)
	n := 0
	for i := 1; i < k; i++ {
		if a+uint64(i)*b < a+uint64(i-1)*b {
			n++
		}
	}
	return n
}

func randKey(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(40))
	rng.Read(b)
	return string(b)
}

// TestFilterMatchesReference pins the filter's bits: over random keys,
// power-of-two and other sizes and k up to 12, the filter words and every
// MayContain answer equal the reference implementation's, with wrapping
// 64-bit probe sums exercised.
func TestFilterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	wrapped := 0
	for _, nbits := range []uint64{64, 100, 997, 1 << 12, 9585, 65537, 3<<20 + 1} {
		for _, k := range []int{1, 2, 7, 12} {
			f := newBits(nbits, k)
			ref := &refFilter{bits: make([]uint64, len(f.bits)), nbits: nbits, k: k}
			n := int(nbits / 16)
			if n > 2000 {
				n = 2000
			}
			for i := 0; i < n; i++ {
				key := randKey(rng)
				f.Add(key)
				ref.add(key)
				wrapped += wraps(key, k)
			}
			for i := range ref.bits {
				if f.bits[i] != ref.bits[i] {
					t.Fatalf("nbits=%d k=%d: word %d = %#x, reference %#x", nbits, k, i, f.bits[i], ref.bits[i])
				}
			}
			for i := 0; i < 2000; i++ {
				key := randKey(rng)
				if got, want := f.MayContain(key), ref.mayContain(key); got != want {
					t.Fatalf("nbits=%d k=%d: MayContain(%q) = %v, reference %v", nbits, k, key, got, want)
				}
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no probe sum wrapped: the wrapping probes went untested")
	}
}

func TestHashKeyAllocatesNothing(t *testing.T) {
	f := New(1000, 0.01)
	key := "user000000000000000000042"
	if n := testing.AllocsPerRun(100, func() { f.Add(key); f.MayContain(key) }); n != 0 {
		t.Fatalf("Add+MayContain allocate %v times, want 0", n)
	}
}

func BenchmarkAdd(b *testing.B) {
	f := New(b.N+1, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add("some-benchmark-key-000001")
	}
}

func BenchmarkMayContain(b *testing.B) {
	f := New(100000, 0.01)
	for i := 0; i < 100000; i++ {
		f.Add(fmt.Sprintf("key%08d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain("key00050000")
	}
}
