package store

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/slab"
)

// taggedRuns builds runs of Records whose single field names the run that
// holds the row, so a test can tell which copy of a duplicated key won.
func taggedRuns(keys [][]string) [][]Record {
	runs := make([][]Record, len(keys))
	for i, ks := range keys {
		for _, k := range ks {
			runs[i] = append(runs[i], Record{Key: k, Fields: slab.View([][]byte{{byte('a' + i)}})})
		}
	}
	return runs
}

// mergeRef is the specification MergeRuns implements: concatenate the
// runs, stable-sort by key, keep the first row of each key, truncate.
func mergeRef(runs [][]Record, count int) []Record {
	var all []Record
	for _, r := range runs {
		all = append(all, r...)
	}
	slices.SortStableFunc(all, func(a, b Record) int { return strings.Compare(a.Key, b.Key) })
	all = slices.CompactFunc(all, func(a, b Record) bool { return a.Key == b.Key })
	if len(all) > max(count, 0) {
		all = all[:max(count, 0)]
	}
	return all
}

func render(rs []Record) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s/%s ", r.Key, r.Fields.Field(0))
	}
	return b.String()
}

func checkMerge(t *testing.T, keys [][]string, count int) {
	t.Helper()
	want := render(mergeRef(taggedRuns(keys), count))
	if got := render(MergeRuns(taggedRuns(keys), count)); got != want {
		t.Fatalf("MergeRuns(%v, %d)\n got %s\nwant %s", keys, count, got, want)
	}
}

func TestMergeRunsEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		keys  [][]string
		count int
	}{
		{"no runs", nil, 5},
		{"empty runs", [][]string{{}, nil, {}}, 5},
		{"count zero", [][]string{{"a", "b"}, {"c"}}, 0},
		{"count negative", [][]string{{"a"}}, -1},
		{"count past total", [][]string{{"a", "d"}, {"b"}, {}, {"c", "e"}}, 100},
		{"interleaved bound", [][]string{{"b", "e", "h"}, {"a", "f"}, {"c", "d", "g"}}, 4},
		{"earliest run wins", [][]string{{"b", "c"}, {"a", "b", "c"}, {"b", "d"}}, 10},
		{"duplicate at the bound", [][]string{{"c"}, {"a", "c"}, {"b", "c"}}, 3},
		{"single run", [][]string{{"a", "b", "c"}}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) { checkMerge(t, tc.keys, tc.count) })
	}
}

func TestMergeRunsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for iter := 0; iter < 2000; iter++ {
		keys := make([][]string, rng.Intn(9))
		for i := range keys {
			// A small key domain makes keys shared between runs common.
			for k := 0; k < 40; k++ {
				if rng.Intn(4) == 0 {
					keys[i] = append(keys[i], fmt.Sprintf("k%02d", k))
				}
			}
		}
		checkMerge(t, keys, rng.Intn(50))
	}
}

func benchRuns(runs, rowsPerRun int) [][]Record {
	out := make([][]Record, runs)
	for i := range out {
		for j := 0; j < rowsPerRun; j++ {
			// Disjoint interleaved shards, like hash-partitioned stores.
			out[i] = append(out[i], Record{Key: fmt.Sprintf("user%021d", j*runs+i)})
		}
	}
	return out
}

// BenchmarkMergeRuns merges one 60-row page from voltdb-shaped fan-outs:
// 2 runs (redis or mysql at 2 nodes), 12 runs (2 hosts x 6 sites) and 72
// runs (12 hosts).
func BenchmarkMergeRuns(b *testing.B) {
	for _, n := range []int{2, 12, 72} {
		b.Run(fmt.Sprintf("runs=%d", n), func(b *testing.B) {
			src := benchRuns(n, 60)
			runs := make([][]Record, n)
			b.ReportAllocs()
			for b.Loop() {
				copy(runs, src)
				if got := MergeRuns(runs, 60); len(got) != 60 {
					b.Fatalf("merged %d rows", len(got))
				}
			}
		})
	}
}
