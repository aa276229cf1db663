package btree

import (
	"math/bits"

	"repro/internal/slab"
)

// The build: Seal computes the page layout that inserting the load batch
// record by record would leave, instead of inserting it. A node always
// holds exactly the arrived keys in its key range, so each level's splits
// can be simulated over key-sorted positions in arrival order: a node is
// the span between two boundaries, and a full node splits at its middle
// arrived key. Every split emits its separator, stamped with the record
// arrival that caused it, as an arrival at the level above. The final
// nodes are then built once per level, in key order, and the buffer pool
// is restored from each page's last touch.

// sep is a node boundary emitted by a split: the record position of the
// separator key and the record arrival whose insert caused the split.
type sep struct{ pos, t uint32 }

// buildScratch is one build's working memory: about 32 bytes a record,
// its sort items (from slab.Items) included.
type buildScratch struct {
	items   []slab.PrefixItem // the batch in key order (I = arrival index)
	pos     []uint32          // arrival index -> key position; later position -> split stamp
	present []uint64          // bitset: keys the simulated level's nodes hold
	starts  []uint64          // bitset: where the simulated level's nodes start
	summary []uint64          // bitset: the nonzero words of starts
	count   []uint32          // keys in the simulated node starting at each position
	height  int               // levels simulated: the root's is height-1
	emits   [][]sep           // each level's splits in arrival order
	sorted  [][]sep           // each level's splits in key order
	pages   []page            // every built page, level by level in key order
	touch   []slab.PrefixItem // per page: its last touch (Hi) and index (I)
}

// page is one built node with what restorePool needs to know of it.
type page struct {
	nd     *node
	create int64 // the arrival that created it (-1: New's root leaf)
	rmax   int64 // the last arrival in its key range
	level  int   // 0 = leaf
}

// spares keeps build scratch between builds, none sized for more than
// keepRecords.
var spares slab.Spares[*buildScratch]

const keepRecords = 1 << 20

func getScratch(n int) *buildScratch {
	s := spares.Get()
	if s == nil {
		s = new(buildScratch)
	}
	s.items = grow(slab.Items.Get(), n)
	return s
}

func putScratch(s *buildScratch) {
	clear(s.pages[:cap(s.pages)]) // keep no built tree alive
	if cap(s.items) > keepRecords {
		return
	}
	slab.Items.Put(s.items)
	s.items = nil
	spares.Put(s)
}

// grow returns s resized to n, reusing its capacity when it suffices and
// leaving 3% headroom when it does not, so the builds of one load, whose
// batches differ by a fraction of a percent, share one allocation.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/32)
	}
	return s[:n]
}

// build builds the tree from the load batch into New's empty tree, which
// takes the batch's records: New wrote none, so every ref is the one Put
// would have carved. It panics if the batch repeats a key.
func (t *Tree) build() {
	batch := t.batch
	t.batch = nil
	n := batch.Len()
	if n >= 1<<32-1 {
		panic("btree: load batch of 2^32 records or more")
	}
	s := getScratch(n)
	defer putScratch(s)
	if !batch.Sort(s.items) {
		panic("btree: load batch repeats a key")
	}
	s.simulate(t.cfg, n)
	t.assemble(s, batch, n)
	t.restorePool(s)
	t.recs = batch.Take()
}

// simulate runs every level's splits: the leaves take the records in
// arrival order, each level above takes the separators the level below
// emitted, and the level that emits none holds the root.
func (s *buildScratch) simulate(cfg Config, n int) {
	s.pos, s.count = grow(s.pos, n), grow(s.count, n)
	for p := range s.items {
		s.pos[s.items[p].I] = uint32(p)
	}
	words := (n + 63) / 64
	s.present, s.starts = grow(s.present, words), grow(s.starts, words)
	s.summary = grow(s.summary, (words+63)/64)
	// Leaves: a leaf splits once it holds LeafCap+1 keys, and the right
	// leaf starts at its middle key.
	s.reset()
	emit := levelBuf(&s.emits, 0)
	for t, p := range s.pos {
		emit = s.add(p, uint32(t), uint32(cfg.LeafCap), false, emit)
	}
	s.emits[0] = emit
	// Inner levels: a node splits once it holds InternalCap keys, and its
	// middle key moves up, leaving the level but still marking where the
	// right node starts.
	for s.height = 1; len(s.emits[s.height-1]) > 0; s.height++ {
		s.reset()
		emit := levelBuf(&s.emits, s.height)
		for _, a := range s.emits[s.height-1] {
			emit = s.add(a.pos, a.t, uint32(cfg.InternalCap-1), true, emit)
		}
		s.emits[s.height] = emit
	}
	// Every level's boundaries in key order: positions are distinct, so a
	// bitset sorts them (pos now maps a position to its split stamp).
	for lvl := range s.height {
		clear(s.present)
		for _, e := range s.emits[lvl] {
			s.present[e.pos>>6] |= 1 << (e.pos & 63)
			s.pos[e.pos] = e.t
		}
		out := levelBuf(&s.sorted, lvl)
		for w, word := range s.present {
			for ; word != 0; word &= word - 1 {
				p := uint32(w<<6 | bits.TrailingZeros64(word))
				out = append(out, sep{pos: p, t: s.pos[p]})
			}
		}
		s.sorted[lvl] = out
	}
}

// levelBuf returns (*bufs)[i] emptied, growing bufs to hold it.
func levelBuf(bufs *[][]sep, i int) []sep {
	for len(*bufs) <= i {
		*bufs = append(*bufs, nil)
	}
	return (*bufs)[i][:0]
}

// reset starts a level with no keys and one empty node, which starts at 0
// and covers every key. No split puts a boundary at 0: a split key has at
// least one key before it.
func (s *buildScratch) reset() {
	clear(s.present)
	clear(s.starts)
	clear(s.summary)
	s.starts[0], s.summary[0], s.count[0] = 1, 1, 0
}

// add inserts the key at position p, arriving with record t, into the
// simulated level whose nodes split once they hold more than limit keys,
// and appends the boundary a split emits to emit. On the leaf level the
// split key stays as the right node's first key; on an inner level it is
// promoted and leaves the level, but its position still starts the right
// node.
func (s *buildScratch) add(p, t uint32, limit uint32, inner bool, emit []sep) []sep {
	lo := s.nodeStart(p)
	s.present[p>>6] |= 1 << (p & 63)
	c := s.count[lo] + 1
	s.count[lo] = c
	if c <= limit {
		return emit
	}
	// The left node keeps the c/2 keys before the split key.
	mid := c / 2
	q := nthSet(s.present, lo, int(mid))
	s.starts[q>>6] |= 1 << (q & 63)
	s.summary[q>>12] |= 1 << (q >> 6 & 63)
	s.count[lo], s.count[q] = mid, c-mid
	if inner {
		s.present[q>>6] &^= 1 << (q & 63)
		s.count[q]--
	}
	return append(emit, sep{pos: q, t: t})
}

// nodeStart returns the start of the simulated node covering position p:
// the highest start at or below it, found through the summary so a wide
// node costs no more than a narrow one.
func (s *buildScratch) nodeStart(p uint32) uint32 {
	w := p >> 6
	if m := s.starts[w] & (2<<(p&63) - 1); m != 0 { // a shift by 64 gives 0
		return w<<6 | uint32(63-bits.LeadingZeros64(m))
	}
	// The highest nonzero starts word below w; word 0 holds position 0.
	sw := w >> 6
	m := s.summary[sw] & (1<<(w&63) - 1)
	for m == 0 {
		sw--
		m = s.summary[sw]
	}
	w = sw<<6 | uint32(63-bits.LeadingZeros64(m))
	return w<<6 | uint32(63-bits.LeadingZeros64(s.starts[w]))
}

// nthSet returns the position of the k-th (from 0) set bit at or after
// from; it must exist.
func nthSet(b []uint64, from uint32, k int) uint32 {
	w := int(from >> 6)
	word := b[w] &^ (1<<(from&63) - 1)
	for c := bits.OnesCount64(word); k >= c; c = bits.OnesCount64(word) {
		k -= c
		w++
		word = b[w]
	}
	for ; k > 0; k-- {
		word &= word - 1
	}
	return uint32(w<<6 | bits.TrailingZeros64(word))
}

// assemble builds every level's final nodes once, in key order, at page
// capacity: the leaves from the sorted batch, chained, with New's root
// leaf leftmost, and above them the node holding separators a..b-1 of a
// level with children a..b of the level below. It records each page's
// creation and last in-range arrival for restorePool.
func (t *Tree) assemble(s *buildScratch, batch *slab.Batch, n int) {
	pages := 0
	for _, b := range s.sorted[:s.height] {
		pages += len(b) + 1
	}
	s.pages = grow(s.pages, pages)[:0]
	// Leaves: leaf k covers the key positions from boundary k-1 to
	// boundary k.
	bounds := s.sorted[0]
	var prev *node
	for k := 0; k <= len(bounds); k++ {
		lo, hi, create := 0, n, int64(-1)
		leaf := t.root
		if k > 0 {
			lo, create = int(bounds[k-1].pos), int64(bounds[k-1].t)
			leaf = t.newNode(true)
			prev.next = leaf
		}
		if k < len(bounds) {
			hi = int(bounds[k].pos)
		}
		rmax := int64(-1)
		for _, it := range s.items[lo:hi] {
			leaf.recs = append(leaf.recs, batch.At(it.I))
			leaf.pfxs = append(leaf.pfxs, pfx{hi: it.Hi, lo: it.Lo})
			rmax = max(rmax, int64(it.I))
		}
		s.pages = append(s.pages, page{nd: leaf, create: create, rmax: rmax})
		prev = leaf
	}
	// Inner levels: walk the level's separators (the boundaries of the
	// level below, in key order); a promoted one closes the current node.
	below := 0 // index in s.pages of the level below's first node
	for lvl := 1; lvl < s.height; lvl++ {
		seps, promoted := s.sorted[lvl-1], s.sorted[lvl]
		first := len(s.pages)
		open := func(child int, create int64) {
			nd := t.newNode(false)
			nd.children = append(nd.children, s.pages[child].nd)
			s.pages = append(s.pages, page{nd: nd, create: create, rmax: s.pages[child].rmax, level: lvl})
		}
		// The leftmost node is the root this level grew with: created by
		// the first separator to arrive at it.
		open(below, int64(s.emits[lvl-1][0].t))
		next := 0
		for i, sp := range seps {
			child := below + i + 1
			if next < len(promoted) && promoted[next].pos == sp.pos {
				open(child, int64(promoted[next].t))
				next++
				continue
			}
			cur := &s.pages[len(s.pages)-1]
			it := &s.items[sp.pos]
			cur.nd.recs = append(cur.nd.recs, batch.At(it.I))
			cur.nd.pfxs = append(cur.nd.pfxs, pfx{hi: it.Hi, lo: it.Lo})
			cur.nd.children = append(cur.nd.children, s.pages[child].nd)
			cur.rmax = max(cur.rmax, s.pages[child].rmax)
		}
		below = first
	}
	t.root = s.pages[len(s.pages)-1].nd
	t.height = s.height
	t.n = n
}

// restorePool leaves the buffer pool as the inserts' page touches would:
// the BufferPages most recently touched pages, in recency order, all
// dirty. A page's last touch, as (arrival, phase, level) in touch order,
// is the later of
//   - a path touch (j, 0, -level): an insert descends root first, so j is
//     the last arrival in the page's final key range if it came after the
//     page was created, or the page's latest split as the left half (the
//     split's insert descended through it);
//   - its admission (t, 1, level), if nothing touched it since: a split
//     admits the right halves bottom up, then a new root. New's root leaf
//     is never admitted.
func (t *Tree) restorePool(s *buildScratch) {
	s.touch = grow(s.touch, len(s.pages))
	for i := range s.pages {
		pg := &s.pages[i]
		last := pg.rmax
		// A page's right neighbour on its level was created by the page's
		// latest split, if it came after the page.
		if i+1 < len(s.pages) && s.pages[i+1].level == pg.level && s.pages[i+1].create > pg.create {
			last = max(last, s.pages[i+1].create)
		}
		lvl := uint64(pg.level)
		key := uint64(pg.create)<<8 | 1<<7 | lvl
		if last > pg.create {
			key = uint64(last)<<8 | (127 - lvl)
		}
		s.touch[i] = slab.PrefixItem{Hi: key, I: uint32(i)}
		pg.nd.dirty = true
	}
	// Last touches are distinct, so the sort never compares keys. The
	// pool is empty: nothing touched a page before the build.
	slab.SortByPrefix(s.touch, nil)
	keep := min(t.pool.cap, len(s.touch))
	for _, it := range s.touch[len(s.touch)-keep:] {
		nd := s.pages[it.I].nd
		t.pool.pushFront(nd)
		nd.inPool = true
	}
	t.pool.len = keep
}
