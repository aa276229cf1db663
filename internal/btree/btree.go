// Package btree implements a page-oriented B+tree with an LRU buffer pool,
// modeling InnoDB (the paper's MySQL storage engine) and BerkeleyDB (the
// storage engine the paper's Voldemort configuration embedded). Operations
// return I/O statistics — pages touched, buffer-pool misses, dirty
// write-backs — which the store models convert into simulated disk time.
//
// Retained state is pointer-free: records live in one append-only
// slab.Records store owned by the tree, key bytes then field bytes, the
// layout the memtable and the sstables use, and nodes hold slab.Rec
// scalars instead of strings and [][]byte values, so a multi-million-row
// table is a handful of large buffers plus small scalar slices to the
// garbage collector. A same-shape update overwrites payload bytes in
// place.
//
// Two host-side fast paths keep the model cheap to execute without changing
// anything it simulates:
//
//   - Every key carries its first 16 bytes as two big-endian words, and all
//     searches order keys by register compare, falling back to a byte-wise
//     compare only on a double tie (the same treatment the memtable's skip
//     list got). Sound because zero-padded big-endian prefix order is a
//     coarsening of lexicographic order.
//   - The load phase is batched: Load buffers records in a slab.Batch,
//     whose entries never regrow or move, and the tree is built at Seal
//     or on first use, taking the batch's records as its own. Hash-
//     permuted keys produce an insertion-order-dependent page layout, and
//     that layout is part of the model (it sets the disk footprint and the
//     buffer-pool miss sequence), but it is a function of the keys' order
//     and their arrival order alone. So the build (build.go) sorts the
//     batch once by key, simulates each level's splits in arrival order
//     over key-sorted positions, builds every final node once, and
//     restores the pool from each page's last touch. A bulk-loaded tree is
//     bit-equivalent to one fed the same records by Put: same pages, same
//     pool contents and recency order, same charges on every later
//     operation. The batch must follow the load contract (store.LoadAll):
//     distinct keys, into a tree nothing has read, written or sealed.
//   - Nodes are allocated at page capacity (LeafCap+1 leaf slots,
//     InternalCap separators and InternalCap+1 children) and a split keeps
//     the left node's arrays, so inserts never regrow a node's slices.
package btree

import (
	"slices"

	"repro/internal/slab"
)

// Config parameterizes the tree.
type Config struct {
	PageSize    int64 // bytes per page (InnoDB: 16 KiB)
	BufferPages int   // pages the buffer pool can hold
	LeafCap     int   // entries per leaf page (encodes per-row overhead + fill factor)
	InternalCap int   // children per internal page
}

func (c *Config) defaults() {
	if c.PageSize == 0 {
		c.PageSize = 16 << 10
	}
	if c.BufferPages == 0 {
		c.BufferPages = 1024
	}
	if c.LeafCap == 0 {
		c.LeafCap = 64
	}
	if c.InternalCap == 0 {
		c.InternalCap = 256
	}
}

// IOStats reports the page traffic of one operation.
type IOStats struct {
	PagesTouched    int // buffer pool lookups
	Misses          int // pages that had to come from disk
	DirtyWritebacks int // dirty pages evicted to make room
}

// pfx is a key's first 16 bytes as two big-endian words, zero padded.
// pfx order is a coarsening of key order: if two prefixes differ they
// decide the comparison; equal prefixes decide nothing either way.
type pfx struct{ hi, lo uint64 }

// prefixOf packs the first 16 bytes of k.
func prefixOf(k string) pfx {
	return pfx{hi: slab.KeyPrefix(k, 0), lo: slab.KeyPrefix(k, 8)}
}

type node struct {
	leaf bool
	// recs are a leaf's rows, or an inner node's separators (len ==
	// len(children)-1), each the record of a row whose key it is. Key
	// bytes are never overwritten, so a separator stays valid when its
	// row moves.
	recs     []slab.Rec
	pfxs     []pfx // recs[i]'s key prefix, kept parallel to recs
	children []*node
	next     *node // leaf chain

	// Intrusive buffer-pool bookkeeping: the pool is a doubly linked list
	// threaded through the nodes themselves, so a page touch costs pointer
	// writes, not a map probe.
	inPool           bool
	dirty            bool
	lruPrev, lruNext *node
}

// Tree is a B+tree with buffer-pool accounting.
type Tree struct {
	cfg    Config
	root   *node
	height int
	n      int
	pages  int

	recs slab.Records

	pool pool

	// batch is the buffered load; the tree is built from it on first use
	// (see Load and Seal).
	batch *slab.Batch
	// sealed is set by the first Seal, which every accessor calls: from
	// then on the tree takes no Load.
	sealed bool
}

// New creates an empty tree. It panics on leaves that hold no entry or
// inner pages with fewer than three children: the build needs every level
// to hold at most half the nodes of the level below, which bounds the
// height its last-touch keys encode.
func New(cfg Config) *Tree {
	cfg.defaults()
	if cfg.LeafCap < 1 || cfg.InternalCap < 3 {
		panic("btree: LeafCap below 1 or InternalCap below 3")
	}
	t := &Tree{cfg: cfg}
	t.pool.init(cfg.BufferPages)
	t.root = t.newNode(true)
	t.height = 1
	return t
}

// newNode allocates a page with its slices at page capacity, once: a leaf
// holds up to LeafCap+1 entries (one past full, until it splits), an inner
// node up to InternalCap separators and InternalCap+1 children. Inserts
// and splits then never regrow them.
func (t *Tree) newNode(leaf bool) *node {
	t.pages++
	n := &node{leaf: leaf}
	c := t.cfg.LeafCap + 1
	if !leaf {
		c = t.cfg.InternalCap
		n.children = make([]*node, 0, c+1)
	}
	n.recs, n.pfxs = make([]slab.Rec, 0, c), make([]pfx, 0, c)
	return n
}

// key returns slot i's key as a zero-copy string view.
func (t *Tree) key(n *node, i int) string { return t.recs.Key(n.recs[i]) }

// keyLess reports key i < k, resolving by prefix words when they differ.
func (t *Tree) keyLess(n *node, i int, k string, kp pfx) bool {
	p := n.pfxs[i]
	if p.hi != kp.hi {
		return p.hi < kp.hi
	}
	if p.lo != kp.lo {
		return p.lo < kp.lo
	}
	return t.key(n, i) < k
}

// keyGreater reports key i > k.
func (t *Tree) keyGreater(n *node, i int, k string, kp pfx) bool {
	p := n.pfxs[i]
	if p.hi != kp.hi {
		return p.hi > kp.hi
	}
	if p.lo != kp.lo {
		return p.lo > kp.lo
	}
	return t.key(n, i) > k
}

// searchGE returns the first index with key i >= k
// (sort.SearchStrings equivalent, prefix-accelerated).
func (t *Tree) searchGE(n *node, k string, kp pfx) int {
	lo, hi := 0, len(n.recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.keyLess(n, mid, k, kp) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchGT returns the first index with key i > k: the child index for a
// descent (children[i] covers keys below key i).
func (t *Tree) searchGT(n *node, k string, kp pfx) int {
	lo, hi := 0, len(n.recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.keyGreater(n, mid, k, kp) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// touch records a buffer pool access to page n; dirty marks it modified.
func (t *Tree) touch(io *IOStats, n *node, dirty bool) {
	io.PagesTouched++
	miss, wb := t.pool.access(n, dirty)
	if miss {
		io.Misses++
	}
	if wb {
		io.DirtyWritebacks++
	}
}

// admit registers a freshly allocated page in the pool: it is dirty but was
// never on disk, so no read miss is charged (evicting a victim may still
// cost a write-back).
func (t *Tree) admit(io *IOStats, n *node) {
	io.PagesTouched++
	_, wb := t.pool.access(n, true)
	if wb {
		io.DirtyWritebacks++
	}
}

// Load buffers an entry for the deferred bulk build, charging nothing: the
// benchmark's load phase runs outside measured time. Key and payload bytes
// are copied into the batch immediately (the caller's slices are not
// retained). The tree is built by Seal, which every read, write, scan and
// size accessor calls first; the build computes the pages from the keys'
// order and arrival order. A Load after Seal panics, and Seal panics on a
// batch that repeats a key (see store.LoadAll for the contract). The
// caller keeps no other obligations: a bulk-loaded tree is
// indistinguishable (pages, pool state, every later charge) from one
// built by calling Put per record.
func (t *Tree) Load(key string, fields [][]byte) {
	if t.sealed {
		panic("btree: Load after Seal")
	}
	if t.batch == nil {
		t.batch = new(slab.Batch)
	}
	t.batch.Append(key, fields)
}

// Seal ends the load phase, building the tree from the buffered load
// batch, if any. Every read, write, scan and size accessor seals first,
// so calling it is never needed for correctness; a loader calls it to end
// the load phase with the tree built, so the build runs on the loader's
// goroutine.
func (t *Tree) Seal() {
	if t.sealed {
		return
	}
	t.sealed = true
	if t.batch != nil {
		t.build()
	}
}

// Get returns a view of the fields for key.
func (t *Tree) Get(key string) (slab.FieldsView, bool, IOStats) {
	t.Seal()
	var io IOStats
	kp := prefixOf(key)
	n := t.root
	for {
		t.touch(&io, n, false)
		if n.leaf {
			i := t.searchGE(n, key, kp)
			if i < len(n.recs) && t.key(n, i) == key {
				return t.recs.Fields(n.recs[i]), true, io
			}
			return slab.FieldsView{}, false, io
		}
		n = n.children[t.searchGT(n, key, kp)]
	}
}

// Put inserts or replaces key.
func (t *Tree) Put(key string, fields [][]byte) IOStats {
	t.Seal()
	var io IOStats
	kp := prefixOf(key)
	sep, sepPfx, right := t.insert(t.root, key, kp, t.recs.Append(key, fields), &io)
	if right != nil {
		newRoot := t.newNode(false)
		newRoot.recs = append(newRoot.recs, sep)
		newRoot.pfxs = append(newRoot.pfxs, sepPfx)
		newRoot.children = append(newRoot.children, t.root, right)
		t.root = newRoot
		t.height++
		t.admit(&io, newRoot)
	}
	return io
}

// Update overwrites the fields of an existing key in place: an index
// descent with clean touches, dirtying only the leaf that holds the row.
// No page is allocated, split, or added — the read-modify-write that
// in-place UPDATE statements and BDB replacing puts perform. Returns
// whether the key existed (a miss still pays the descent).
func (t *Tree) Update(key string, fields [][]byte) (bool, IOStats) {
	var io IOStats
	n, kp := t.descend(key, &io)
	i := t.searchGE(n, key, kp)
	found := i < len(n.recs) && t.key(n, i) == key
	t.touch(&io, n, found)
	if found {
		n.recs[i] = t.recs.Replace(n.recs[i], fields)
	}
	return found, io
}

// insert descends to the leaf and places the record r of key there (a
// duplicate key's row becomes r: last write wins); returns a separator
// (with its prefix) and new right node if this subtree split.
func (t *Tree) insert(n *node, key string, kp pfx, r slab.Rec, io *IOStats) (slab.Rec, pfx, *node) {
	t.touch(io, n, true)
	if n.leaf {
		i := t.searchGE(n, key, kp)
		if i < len(n.recs) && t.key(n, i) == key {
			n.recs[i] = r
			return slab.Rec{}, pfx{}, nil
		}
		n.recs = slices.Insert(n.recs, i, r)
		n.pfxs = slices.Insert(n.pfxs, i, kp)
		t.n++
		if len(n.recs) <= t.cfg.LeafCap {
			return slab.Rec{}, pfx{}, nil
		}
		return t.splitLeaf(n, io)
	}
	ci := t.searchGT(n, key, kp)
	sep, sepPfx, right := t.insert(n.children[ci], key, kp, r, io)
	if right == nil {
		return slab.Rec{}, pfx{}, nil
	}
	n.recs = slices.Insert(n.recs, ci, sep)
	n.pfxs = slices.Insert(n.pfxs, ci, sepPfx)
	n.children = slices.Insert(n.children, ci+1, right)
	if len(n.children) <= t.cfg.InternalCap {
		return slab.Rec{}, pfx{}, nil
	}
	return t.splitInternal(n, io)
}

func (t *Tree) splitLeaf(n *node, io *IOStats) (slab.Rec, pfx, *node) {
	mid := len(n.recs) / 2
	right := t.newNode(true)
	right.recs = append(right.recs, n.recs[mid:]...)
	right.pfxs = append(right.pfxs, n.pfxs[mid:]...)
	n.recs = n.recs[:mid]
	n.pfxs = n.pfxs[:mid]
	right.next = n.next
	n.next = right
	t.admit(io, right)
	// The separator is the right leaf's first row.
	return right.recs[0], right.pfxs[0], right
}

func (t *Tree) splitInternal(n *node, io *IOStats) (slab.Rec, pfx, *node) {
	midKey := len(n.recs) / 2
	sep, sepPfx := n.recs[midKey], n.pfxs[midKey]
	right := t.newNode(false)
	right.recs = append(right.recs, n.recs[midKey+1:]...)
	right.pfxs = append(right.pfxs, n.pfxs[midKey+1:]...)
	right.children = append(right.children, n.children[midKey+1:]...)
	n.recs = n.recs[:midKey]
	n.pfxs = n.pfxs[:midKey]
	clear(n.children[midKey+1:])
	n.children = n.children[:midKey+1]
	t.admit(io, right)
	return sep, sepPfx, right
}

// descend walks the index from the root to the leaf that would hold key,
// paying one clean page touch per internal node, and returns the leaf with
// key's prefix.
func (t *Tree) descend(key string, io *IOStats) (*node, pfx) {
	t.Seal()
	kp := prefixOf(key)
	n := t.root
	for !n.leaf {
		t.touch(io, n, false)
		n = n.children[t.searchGT(n, key, kp)]
	}
	return n, kp
}

// Scan returns up to count entries with keys >= start, walking the leaf
// chain. A leaf pays its page touch only when the walk reads from it, so a
// zero-count scan pays just the index descent and the walk never touches
// the leaf after the count-th entry.
func (t *Tree) Scan(start string, count int) (out []slab.Entry, io IOStats) {
	n, kp := t.descend(start, &io)
	if count <= 0 {
		return nil, io
	}
	out = make([]slab.Entry, 0, min(count, t.n))
	t.touch(&io, n, false)
	for i := t.searchGE(n, start, kp); len(out) < count; i++ {
		for i >= len(n.recs) {
			if n.next == nil {
				return out, io
			}
			n, i = n.next, 0
			t.touch(&io, n, false)
		}
		out = append(out, t.recs.Entry(n.recs[i]))
	}
	return out, io
}

// ScanAllFrom visits every entry with key >= start without materializing
// them, returning how many entries and pages were touched. It models the
// paper's observation that the YCSB RDBMS client's scan "retrieves all
// records with a key equal or greater than the start key" (§5.4).
func (t *Tree) ScanAllFrom(start string) (entries int, io IOStats) {
	n, kp := t.descend(start, &io)
	for i := t.searchGE(n, start, kp); n != nil; n, i = n.next, 0 {
		t.touch(&io, n, false)
		entries += len(n.recs) - i
	}
	return entries, io
}

// Len returns the number of entries.
func (t *Tree) Len() int { t.Seal(); return t.n }

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { t.Seal(); return t.height }

// Pages returns the number of allocated pages.
func (t *Tree) Pages() int { t.Seal(); return t.pages }

// DiskBytes returns the on-disk footprint (pages x page size).
func (t *Tree) DiskBytes() int64 { t.Seal(); return int64(t.pages) * t.cfg.PageSize }

// SlabBytes returns the heap footprint of the tree's record slab
// (apmbench -memstats).
func (t *Tree) SlabBytes() int64 { t.Seal(); return t.recs.Data.Allocated() }

// pool is a fixed-capacity page cache with dirty tracking, threaded
// intrusively through the nodes it caches.
type pool struct {
	cap        int
	len        int
	head, tail *node // head = most recent
}

func (l *pool) init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	l.cap = capacity
}

func (l *pool) unlink(n *node) {
	if n.lruPrev != nil {
		n.lruPrev.lruNext = n.lruNext
	} else {
		l.head = n.lruNext
	}
	if n.lruNext != nil {
		n.lruNext.lruPrev = n.lruPrev
	} else {
		l.tail = n.lruPrev
	}
	n.lruPrev, n.lruNext = nil, nil
}

func (l *pool) pushFront(n *node) {
	n.lruNext = l.head
	if l.head != nil {
		l.head.lruPrev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

// access touches page n; returns (miss, dirtyWriteback).
func (l *pool) access(n *node, dirty bool) (bool, bool) {
	if n.inPool {
		n.dirty = n.dirty || dirty
		l.unlink(n)
		l.pushFront(n)
		return false, false
	}
	wb := false
	if l.len >= l.cap {
		victim := l.tail
		l.unlink(victim)
		victim.inPool = false
		wb = victim.dirty
		l.len--
	}
	n.inPool = true
	n.dirty = dirty
	l.pushFront(n)
	l.len++
	return true, wb
}
