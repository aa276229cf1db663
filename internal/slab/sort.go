package slab

import (
	"runtime"
	"slices"
	"sync"
)

// PrefixItem is one record of a prefix sort: its key's two prefix words
// (KeyPrefix at offsets 0 and 8) and the caller's index for the record.
type PrefixItem struct {
	Hi, Lo uint64
	I      uint32
}

// SortByPrefix sorts items into key order, in place, and reports whether
// the keys are distinct. It orders items by their prefix pair with a
// most-significant-byte radix sort (American flag sort), which needs no
// second buffer and skips every byte a bucket's items share, then sorts
// each run of equal prefixes with a comparison sort over keys: cmp(a, b)
// compares the full keys of the records indexed a and b. Keys that agree
// on all 16 prefix bytes (`Host000/Agent/Co…`) therefore cost O(k log k)
// compares per run of k, and only they reach cmp.
func SortByPrefix(items []PrefixItem, cmp func(a, b uint32) int) bool {
	radixSort(items, 0)
	distinct := true
	for lo := 0; lo < len(items); {
		hi := lo + 1
		for hi < len(items) && items[hi].Hi == items[lo].Hi && items[hi].Lo == items[lo].Lo {
			hi++
		}
		if run := items[lo:hi]; len(run) > 1 {
			slices.SortFunc(run, func(a, b PrefixItem) int { return cmp(a.I, b.I) })
			for i := 1; i < len(run); i++ {
				if cmp(run[i-1].I, run[i].I) == 0 {
					distinct = false
				}
			}
		}
		lo = hi
	}
	return distinct
}

// insertionMax is the largest bucket radixSort orders by insertion sort.
const insertionMax = 32

// prefixByte returns byte d (0-15) of an item's prefix pair.
func prefixByte(it *PrefixItem, d int) int {
	if d < 8 {
		return int(byte(it.Hi >> (56 - 8*d)))
	}
	return int(byte(it.Lo >> (120 - 8*d)))
}

// radixSort orders items by prefix pair, given that they share prefix
// bytes 0..d-1. Each pass only walks the range of byte values its items
// use: ten for a decimal digit.
func radixSort(items []PrefixItem, d int) {
	for ; d < 16; d++ {
		if len(items) <= insertionMax {
			insertionSort(items)
			return
		}
		var end, next [256]int
		lo, hi := 255, 0
		for i := range items {
			b := prefixByte(&items[i], d)
			end[b]++
			lo, hi = min(lo, b), max(hi, b)
		}
		if lo == hi {
			continue // every item has this byte
		}
		sum := 0
		for b := lo; b <= hi; b++ {
			next[b] = sum
			sum += end[b]
			end[b] = sum
		}
		// Swap each item into its bucket's next free slot until every
		// bucket holds only its own.
		for b := lo; b <= hi; b++ {
			for next[b] < end[b] {
				it := items[next[b]]
				for c := prefixByte(&it, d); c != b; c = prefixByte(&it, d) {
					items[next[c]], it = it, items[next[c]]
					next[c]++
				}
				items[next[b]] = it
				next[b]++
			}
		}
		start := 0
		for b := lo; b <= hi; b++ {
			if end[b]-start > 1 {
				radixSort(items[start:end[b]], d+1)
			}
			start = end[b]
		}
		return
	}
}

// insertionSort orders a small bucket by prefix pair.
func insertionSort(items []PrefixItem) {
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i
		for ; j > 0 && (items[j-1].Hi > it.Hi || items[j-1].Hi == it.Hi && items[j-1].Lo > it.Lo); j-- {
			items[j] = items[j-1]
		}
		items[j] = it
	}
}

// Items keeps SortByPrefix item slices between sorts. Every caller shares
// it, so a load's batch sorts, for LSM cuts and B-tree builds alike,
// reuse the same few slices.
var Items Spares[[]PrefixItem]

// Spares keeps scratch values between uses, up to one per processor.
// Unlike a sync.Pool it is not emptied by a collection: a load phase
// collects garbage often enough that pooled scratch would be reallocated
// by most of the sorts and builds that use it.
type Spares[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get returns a kept value, or the zero T when none is kept.
func (s *Spares[T]) Get() (v T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		v = s.free[n-1]
		s.free = s.free[:n-1]
	}
	return v
}

// Put keeps v, unless one value per processor is kept already.
func (s *Spares[T]) Put(v T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) < runtime.GOMAXPROCS(0) {
		s.free = append(s.free, v)
	}
}
