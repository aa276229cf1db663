package btree

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sameTree reports the first difference between two trees, node for node:
// shape, every node's keys, prefixes, values, children and capacities, the
// leaf chain, the buffer pool's contents, recency order and dirty flags,
// and the order of every page's last-touch stamp (which a later replay
// rebuilds the pool from).
func sameTree(a, b *Tree) error {
	if a.n != b.n || a.height != b.height || a.pages != b.pages {
		return fmt.Errorf("shape: n %d/%d height %d/%d pages %d/%d", a.n, b.n, a.height, b.height, a.pages, b.pages)
	}
	na, nb := levelOrder(a.root), levelOrder(b.root)
	if len(na) != len(nb) || len(na) != a.pages {
		return fmt.Errorf("reachable pages %d/%d, counted %d", len(na), len(nb), a.pages)
	}
	ia, ib := index(na), index(nb)
	for i := range na {
		x, y := na[i], nb[i]
		switch {
		case x.leaf != y.leaf:
			return fmt.Errorf("page %d: leaf %v/%v", i, x.leaf, y.leaf)
		case !slices.Equal(x.keys, y.keys) || !slices.Equal(x.pfxs, y.pfxs) || !slices.Equal(x.vals, y.vals):
			return fmt.Errorf("page %d: keys, prefixes or values differ (%d/%d keys)", i, len(x.keys), len(y.keys))
		case cap(x.keys) != cap(y.keys) || cap(x.pfxs) != cap(y.pfxs) || cap(x.vals) != cap(y.vals) || cap(x.children) != cap(y.children):
			return fmt.Errorf("page %d: capacities differ", i)
		case x.dirty != y.dirty || x.inPool != y.inPool:
			return fmt.Errorf("page %d: dirty %v/%v, in pool %v/%v", i, x.dirty, y.dirty, x.inPool, y.inPool)
		case len(x.children) != len(y.children):
			return fmt.Errorf("page %d: %d/%d children", i, len(x.children), len(y.children))
		}
		for c := range x.children {
			if ia[x.children[c]] != ib[y.children[c]] {
				return fmt.Errorf("page %d: child %d is page %d/%d", i, c, ia[x.children[c]], ib[y.children[c]])
			}
		}
		if (x.next == nil) != (y.next == nil) || x.next != nil && ia[x.next] != ib[y.next] {
			return fmt.Errorf("page %d: leaf chain differs", i)
		}
	}
	if a.pool.len != b.pool.len || a.pool.cap != b.pool.cap {
		return fmt.Errorf("pool len %d/%d cap %d/%d", a.pool.len, b.pool.len, a.pool.cap, b.pool.cap)
	}
	pa, pb := poolOrder(a, ia), poolOrder(b, ib)
	if !slices.Equal(pa, pb) || len(pa) != a.pool.len {
		return fmt.Errorf("pool recency order %v, want %v", pa, pb)
	}
	if sa, sb := stampOrder(na), stampOrder(nb); !slices.Equal(sa, sb) {
		return fmt.Errorf("last-touch order %v, want %v", sa, sb)
	}
	return nil
}

// levelOrder lists the pages breadth first: the root, then each level left
// to right, down to the leaves.
func levelOrder(root *node) []*node {
	out := []*node{root}
	for i := 0; i < len(out); i++ {
		out = append(out, out[i].children...)
	}
	return out
}

func index(nodes []*node) map[*node]int {
	m := make(map[*node]int, len(nodes))
	for i, n := range nodes {
		m[n] = i
	}
	return m
}

// poolOrder lists the pooled pages most recent first, checking the links
// both ways.
func poolOrder(t *Tree, idx map[*node]int) []int {
	var out []int
	var prev *node
	for n := t.pool.head; n != nil; prev, n = n, n.lruNext {
		if n.lruPrev != prev {
			return append(out, -1)
		}
		out = append(out, idx[n])
	}
	if t.pool.tail != prev {
		out = append(out, -2)
	}
	return out
}

// stampOrder lists the pages' level-order indexes from the least to the
// most recently touched.
func stampOrder(nodes []*node) []int {
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return nodes[order[i]].stamp < nodes[order[j]].stamp })
	return order
}

// buildBoth loads keys into a tree that seals by the sorted build where it
// can and one that always replays, seals both, and compares them. It
// returns both trees and whether the first took the sorted build.
func buildBoth(t testing.TB, cfg Config, keys []string) (*Tree, *Tree, bool) {
	t.Helper()
	sorted, replayed := New(cfg), New(cfg)
	for i, k := range keys {
		v := fields(fmt.Sprintf("v%d", i))
		sorted.Load(k, v)
		replayed.Load(k, v)
	}
	took := sorted.Seal()
	if replayed.seal(false) {
		t.Fatal("the reference tree took the sorted build")
	}
	if err := sameTree(sorted, replayed); err != nil {
		t.Fatalf("sorted build differs from the replay: %v", err)
	}
	return sorted, replayed, took
}

// gridKeys are APM-shaped keys: every key of a host shares its first 16
// bytes, so the sort orders them by the comparison sort alone.
func gridKeys(hosts, metrics, points int) []string {
	var keys []string
	for h := 0; h < hosts; h++ {
		for m := 0; m < metrics; m++ {
			for p := 0; p < points; p++ {
				keys = append(keys, fmt.Sprintf("Host%03d/Agent/Component%02d/Metric|%012d", h, m, int64(p)*15000))
			}
		}
	}
	return keys
}

func shuffled(keys []string, seed int64) []string {
	out := slices.Clone(keys)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func numbered(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
	}
	return keys
}

// TestSortedBuildMatchesReplay checks the sorted build against a replay of
// the same batch, node for node, and which of the two each Seal took.
func TestSortedBuildMatchesReplay(t *testing.T) {
	random := shuffled(numbered(5000), 1)
	descending := numbered(3000)
	slices.Reverse(descending)
	for _, tc := range []struct {
		name                       string
		leafCap, internalCap, pool int
		keys                       []string
		minHeight                  int
	}{
		{"random", 8, 8, 7, random, 4},
		{"ascending", 8, 8, 7, numbered(3000), 4},
		{"descending", 8, 8, 7, descending, 4},
		{"apm-grid", 8, 8, 7, shuffled(gridKeys(3, 6, 120), 2), 4},
		{"apm-grid-sorted", 11, 128, 50, gridKeys(2, 4, 300), 2},
		{"empty", 8, 8, 7, nil, 1},
		{"one", 8, 8, 7, []string{"k"}, 1},
		{"leafcap", 8, 8, 7, random[:8], 1},
		{"leafcap+1", 8, 8, 7, random[:9], 2},
		{"caps3x3", 3, 3, 7, random[:2000], 6},
		{"caps3x4", 3, 4, 7, random[:2000], 5},
		{"caps8x8", 8, 8, 7, random, 4},
		{"voldemort", 11, 128, 97, shuffled(numbered(2*pendingChunk+3617), 3), 3},
		{"mysql", 94, 512, 31, shuffled(numbered(2*pendingChunk+3617), 4), 2},
		{"pool-larger-than-tree", 8, 8, 1 << 20, random, 4},
		{"pool-one-page", 8, 8, 1, random, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{PageSize: 4096, LeafCap: tc.leafCap, InternalCap: tc.internalCap, BufferPages: tc.pool}
			tr, _, took := buildBoth(t, cfg, tc.keys)
			if want := len(tc.keys) > 0; took != want {
				t.Fatalf("Seal took the sorted build: %v, want %v", took, want)
			}
			if tr.height < tc.minHeight {
				t.Fatalf("height %d, want at least %d", tr.height, tc.minHeight)
			}
		})
	}
	t.Run("repeated-key", func(t *testing.T) {
		keys := append(slices.Clone(random[:500]), random[123])
		if _, _, took := buildBoth(t, small(), keys); took {
			t.Fatal("a batch with a repeated key took the sorted build")
		}
	})
	t.Run("repeated-key-sharing-prefix", func(t *testing.T) {
		keys := gridKeys(1, 2, 300)
		keys = append(keys, keys[17])
		if _, _, took := buildBoth(t, small(), shuffled(keys, 5)); took {
			t.Fatal("a batch with a repeated key took the sorted build")
		}
	})
	t.Run("load-after-seal", func(t *testing.T) {
		cfg := small()
		cfg.BufferPages = 9
		sorted, replayed, took := buildBoth(t, cfg, random[:2500])
		if !took {
			t.Fatal("the first batch did not take the sorted build")
		}
		for i, k := range random[2500:] {
			sorted.Load(k, fields(fmt.Sprint(i)))
			replayed.Load(k, fields(fmt.Sprint(i)))
		}
		if sorted.Seal() {
			t.Fatal("a Load after Seal took the sorted build")
		}
		replayed.seal(false)
		if err := sameTree(sorted, replayed); err != nil {
			t.Fatalf("second batch: %v", err)
		}
	})
	t.Run("inner-pages-too-small", func(t *testing.T) {
		if _, _, took := buildBoth(t, Config{PageSize: 4096, LeafCap: 4, InternalCap: 2, BufferPages: 5}, random[:300]); took {
			t.Fatal("InternalCap 2 took the sorted build")
		}
	})
}

// FuzzBulkBuild checks the sorted build against a replay of the same batch
// on arbitrary key sequences (repeats, keys sharing their first 16 bytes,
// short and empty keys) and small page shapes: the trees must be equal
// node for node whether or not the sorted build ran, and again after a
// second batch loaded after the seal.
func FuzzBulkBuild(f *testing.F) {
	f.Add([]byte("\x03abc\x00Host\x1fxyzzy\x02\x07\x13"), uint8(2), uint8(1), uint8(4), uint16(3))
	f.Add([]byte("\xff\x01\x02\x03\x04\x05\x06\x07\x08\x7f\x00\x00"), uint8(7), uint8(0), uint8(30), uint16(100))
	f.Add([]byte("\x0c\x0dabcdefghijklmn\x1c\x1d"), uint8(0), uint8(5), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, leafCap, internalCap, pool uint8, cut uint16) {
		cfg := Config{
			PageSize:    4096,
			LeafCap:     1 + int(leafCap%12),
			InternalCap: 2 + int(internalCap%10),
			BufferPages: 1 + int(pool%40),
		}
		keys := fuzzKeys(data)
		first, second := keys[:int(cut)%(len(keys)+1)], keys[int(cut)%(len(keys)+1):]
		// The sorted build runs on a batch of distinct keys into a tree
		// nothing has touched: one sealed with no batch is still New's.
		sortable := func(batch []string) bool {
			return len(batch) > 0 && len(batch) == len(distinct(batch)) && cfg.InternalCap >= 3
		}
		sorted, replayed, took := buildBoth(t, cfg, first)
		if want := sortable(first); took != want {
			t.Fatalf("Seal took the sorted build: %v, want %v (%d keys, %d distinct, %+v)",
				took, want, len(first), len(distinct(first)), cfg)
		}
		for i, k := range second {
			sorted.Load(k, fields(fmt.Sprint(i)))
			replayed.Load(k, fields(fmt.Sprint(i)))
		}
		if took, want := sorted.Seal(), len(first) == 0 && sortable(second); took != want {
			t.Fatalf("second Seal took the sorted build: %v, want %v", took, want)
		}
		replayed.seal(false)
		if err := sameTree(sorted, replayed); err != nil {
			t.Fatalf("after a second batch: %v", err)
		}
	})
}

func distinct(keys []string) map[string]bool {
	m := map[string]bool{}
	for _, k := range keys {
		m[k] = true
	}
	return m
}

// fuzzKeys turns bytes into a key sequence. Each op byte takes up to 7
// following bytes as a suffix; its low two bits pick the key: the suffix
// after a fixed 16-byte prefix, the bare suffix (possibly empty), a repeat
// of an earlier key, or a run of hash-named keys, so a few bytes can still
// build a tall tree.
func fuzzKeys(data []byte) []string {
	var keys []string
	for len(data) > 0 && len(keys) < 3000 {
		op := data[0]
		l := min(int(op>>2)%8, len(data)-1)
		suffix := string(data[1 : 1+l])
		data = data[1+l:]
		switch op & 3 {
		case 0:
			keys = append(keys, "Host000/Agent/Co"+suffix)
		case 1:
			keys = append(keys, suffix)
		case 2:
			if len(keys) > 0 {
				keys = append(keys, keys[int(op>>2)%len(keys)])
			}
		case 3:
			for i := 0; i < 16*(l+1); i++ {
				h := fnv.New32a()
				fmt.Fprintf(h, "%s/%d", suffix, i)
				keys = append(keys, fmt.Sprintf("u%08x", h.Sum32()))
			}
		}
	}
	return keys
}
