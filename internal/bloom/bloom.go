// Package bloom implements a Bloom filter with double hashing, as used by
// the SSTable/HFile read paths of Cassandra and HBase to skip files that
// cannot contain a key.
package bloom

import "math"

// Filter is a standard Bloom filter. It is not safe for concurrent use.
type Filter struct {
	bits  []uint64
	nbits uint64
	k     int
	n     int // elements added
}

// New creates a filter sized for expectedN elements at the given target
// false-positive probability (e.g. 0.01).
func New(expectedN int, fpp float64) *Filter {
	if expectedN < 1 {
		expectedN = 1
	}
	if fpp <= 0 || fpp >= 1 {
		fpp = 0.01
	}
	// Optimal sizing: m = -n ln p / (ln 2)^2, k = m/n ln 2.
	m := math.Ceil(-float64(expectedN) * math.Log(fpp) / (math.Ln2 * math.Ln2))
	k := int(math.Round(m / float64(expectedN) * math.Ln2))
	if k < 1 {
		k = 1
	}
	nbits := uint64(m)
	if nbits < 64 {
		nbits = 64
	}
	return newBits(nbits, k)
}

// newBits creates a filter with exactly nbits bits and k probes.
func newBits(nbits uint64, k int) *Filter {
	return &Filter{
		bits:  make([]uint64, (nbits+63)/64),
		nbits: nbits,
		k:     k,
	}
}

// Hash is a key's double hash. Computing it once lets a reader probe any
// number of filters (one per SSTable) without rehashing the key.
type Hash struct{ a, b uint64 }

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashKey derives two 64-bit hashes from key: FNV-1a over the key, and
// FNV-1a over the key with a salt byte appended. The FNV loop runs over
// the string directly, so hashing allocates nothing.
func HashKey(key string) Hash {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return Hash{a: h, b: (h ^ 0xA5) * fnvPrime64}
}

// Add inserts key into the filter.
func (f *Filter) Add(key string) {
	h := HashKey(key)
	for i := 0; i < f.k; i++ {
		idx := (h.a + uint64(i)*h.b) % f.nbits
		f.bits[idx/64] |= 1 << (idx % 64)
	}
	f.n++
}

// MayContain reports whether key might have been added. False positives are
// possible; false negatives are not.
func (f *Filter) MayContain(key string) bool { return f.MayContainHash(HashKey(key)) }

// MayContainHash is MayContain for a key hashed by HashKey.
func (f *Filter) MayContainHash(h Hash) bool {
	for i := 0; i < f.k; i++ {
		idx := (h.a + uint64(i)*h.b) % f.nbits
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// N returns the number of elements added.
func (f *Filter) N() int { return f.n }

// SizeBytes returns the in-memory size of the bit array.
func (f *Filter) SizeBytes() int64 { return int64(len(f.bits) * 8) }

// EstimatedFPP returns the theoretical false-positive probability given the
// current fill.
func (f *Filter) EstimatedFPP() float64 {
	if f.n == 0 {
		return 0
	}
	exp := -float64(f.k) * float64(f.n) / float64(f.nbits)
	return math.Pow(1-math.Exp(exp), float64(f.k))
}
