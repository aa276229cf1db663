package store

import (
	"slices"
	"strings"
)

// MergeRuns merges key-sorted runs into their first count distinct keys,
// in ascending order: the gather step of a store that fans a scan out to
// its shards. Each run must be ascending by key. When several runs hold the
// same key, the row of the earliest run wins. Engine scan results are
// []Record already, so they pass in as runs without a copy. MergeRuns
// consumes runs: it reslices each run as its head is taken.
//
// The run heads sit in a binary heap, so a page costs O(count × log runs)
// compares. A linear selection over the heads is about as fast at 2 runs
// but four times slower at 72 (voltdb at 12 hosts × 6 sites); see
// BenchmarkMergeRuns.
func MergeRuns(runs [][]Record, count int) []Record {
	// h is a min-heap of the indices of non-empty runs, ordered by head key
	// and then by run index.
	var buf [16]int
	h := slices.Grow(buf[:0], len(runs))
	total := 0
	for i, r := range runs {
		if len(r) > 0 {
			h = append(h, i)
			total += len(r)
		}
	}
	less := func(a, b int) bool {
		c := strings.Compare(runs[h[a]][0].Key, runs[h[b]][0].Key)
		return c < 0 || c == 0 && h[a] < h[b]
	}
	down := func(i int) {
		for {
			m := 2*i + 1
			if m+1 < len(h) && less(m+1, m) {
				m++
			}
			if m >= len(h) || !less(m, i) {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]Record, 0, max(0, min(count, total)))
	for len(h) > 0 && len(out) < count {
		i := h[0]
		// Equal keys pop in run order, so only the first copy is kept.
		if rec := runs[i][0]; len(out) == 0 || rec.Key != out[len(out)-1].Key {
			out = append(out, rec)
		}
		if runs[i] = runs[i][1:]; len(runs[i]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}
