package btree

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// sameTree reports the first difference between two trees, node for node:
// shape, every node's records, prefixes, children and capacities, the
// leaf chain, and the buffer pool's contents, recency order and dirty
// flags.
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
		case !slices.Equal(x.recs, y.recs) || !slices.Equal(x.pfxs, y.pfxs):
			return fmt.Errorf("page %d: records or prefixes differ (%d/%d records)", i, len(x.recs), len(y.recs))
		case cap(x.recs) != cap(y.recs) || cap(x.pfxs) != cap(y.pfxs) || cap(x.children) != cap(y.children):
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

// putEach is the build's oracle: a fresh tree fed the records by Put, in
// arrival order. Every page touch of an insert is a write, as every
// load-phase touch is, so its pages come out dirty as the build leaves
// them.
func putEach(cfg Config, keys []string) *Tree {
	tr := New(cfg)
	for i, k := range keys {
		tr.Put(k, fields(fmt.Sprintf("v%d", i)))
	}
	return tr
}

// loadAll loads keys into a fresh tree and seals it.
func loadAll(cfg Config, keys []string) *Tree {
	tr := New(cfg)
	for i, k := range keys {
		tr.Load(k, fields(fmt.Sprintf("v%d", i)))
	}
	tr.Seal()
	return tr
}

// buildBoth builds keys by Load and Seal and by putEach, compares the
// two trees and returns the built one.
func buildBoth(t testing.TB, cfg Config, keys []string) *Tree {
	t.Helper()
	built := loadAll(cfg, keys)
	if err := sameTree(built, putEach(cfg, keys)); err != nil {
		t.Fatalf("the build differs from per-record Put: %v", err)
	}
	return built
}

// mustPanic fails unless fn panics with a message containing want.
func mustPanic(t testing.TB, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	fn()
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

// TestSortedBuildMatchesReplay checks the build against per-record Put of
// the same batch, node for node, and that a batch breaking the load
// contract panics.
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
		{"voldemort", 11, 128, 97, shuffled(numbered(20_001), 3), 3},
		{"mysql", 94, 512, 31, shuffled(numbered(20_001), 4), 2},
		{"pool-larger-than-tree", 8, 8, 1 << 20, random, 4},
		{"pool-one-page", 8, 8, 1, random, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{PageSize: 4096, LeafCap: tc.leafCap, InternalCap: tc.internalCap, BufferPages: tc.pool}
			if tr := buildBoth(t, cfg, tc.keys); tr.height < tc.minHeight {
				t.Fatalf("height %d, want at least %d", tr.height, tc.minHeight)
			}
		})
	}
	t.Run("repeated-key", func(t *testing.T) {
		keys := append(slices.Clone(random[:500]), random[123])
		mustPanic(t, "repeats a key", func() { loadAll(small(), keys) })
	})
	t.Run("repeated-key-sharing-prefix", func(t *testing.T) {
		keys := gridKeys(1, 2, 300)
		keys = append(keys, keys[17])
		mustPanic(t, "repeats a key", func() { loadAll(small(), shuffled(keys, 5)) })
	})
	t.Run("load-after-seal", func(t *testing.T) {
		cfg := small()
		cfg.BufferPages = 9
		tr := buildBoth(t, cfg, random[:2500])
		mustPanic(t, "Load after Seal", func() { tr.Load(random[2500], fields("late")) })
	})
	t.Run("inner-pages-too-small", func(t *testing.T) {
		mustPanic(t, "InternalCap below 3", func() { New(Config{PageSize: 4096, LeafCap: 4, InternalCap: 2, BufferPages: 5}) })
	})
}

// FuzzBulkBuild checks the build against per-record Put of the same batch
// on arbitrary key sequences (keys sharing their first 16 bytes, short and
// empty keys) and small page shapes: the trees must be equal node for
// node. A batch that repeats a key must panic at Seal, and so must a
// second batch loaded after the seal.
func FuzzBulkBuild(f *testing.F) {
	f.Add([]byte("\x03abc\x00Host\x1fxyzzy\x02\x07\x13"), uint8(2), uint8(1), uint8(4), uint16(3))
	f.Add([]byte("\xff\x01\x02\x03\x04\x05\x06\x07\x08\x7f\x00\x00"), uint8(7), uint8(0), uint8(30), uint16(100))
	f.Add([]byte("\x0c\x0dabcdefghijklmn\x1c\x1d"), uint8(0), uint8(5), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, leafCap, internalCap, pool uint8, cut uint16) {
		cfg := Config{
			PageSize:    4096,
			LeafCap:     1 + int(leafCap%12),
			InternalCap: 3 + int(internalCap%10),
			BufferPages: 1 + int(pool%40),
		}
		keys := fuzzKeys(data)
		first, second := keys[:int(cut)%(len(keys)+1)], keys[int(cut)%(len(keys)+1):]
		if len(first) != len(distinct(first)) {
			mustPanic(t, "repeats a key", func() { loadAll(cfg, first) })
			return
		}
		tr := buildBoth(t, cfg, first)
		if len(second) > 0 {
			mustPanic(t, "Load after Seal", func() { tr.Load(second[0], fields("late")) })
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
