// Package btree implements a page-oriented B+tree with an LRU buffer pool,
// modeling InnoDB (the paper's MySQL storage engine) and BerkeleyDB (the
// storage engine the paper's Voldemort configuration embedded). Operations
// return I/O statistics — pages touched, buffer-pool misses, dirty
// write-backs — which the store models convert into simulated disk time.
//
// Retained state is pointer-free: key bytes and field payloads live in two
// append-only slabs owned by the tree, and nodes hold packed scalar refs
// ([]kref / []vref) instead of strings and [][]byte values, so a
// multi-million-row table is a handful of large buffers plus small scalar
// slices to the garbage collector. Field layouts are interned in a shared
// shape table; a same-shape update overwrites payload bytes in place.
//
// Two host-side fast paths keep the model cheap to execute without changing
// anything it simulates:
//
//   - Every key carries its first 16 bytes as two big-endian words, and all
//     searches order keys by register compare, falling back to a byte-wise
//     compare only on a double tie (the same treatment the memtable's skip
//     list got). Sound because zero-padded big-endian prefix order is a
//     coarsening of lexicographic order.
//   - The load phase is batched: Load buffers entries in fixed-size chunks
//     (8,192 entries once past the first few), so the batch never regrows
//     or moves, and the tree is built at Seal or on first use. Hash-
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

import "repro/internal/slab"

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

// Add accumulates other into s.
func (s *IOStats) Add(other IOStats) {
	s.PagesTouched += other.PagesTouched
	s.Misses += other.Misses
	s.DirtyWritebacks += other.DirtyWritebacks
}

// pfx is a key's first 16 bytes as two big-endian words, zero padded.
// pfx order is a coarsening of key order: if two prefixes differ they
// decide the comparison; equal prefixes decide nothing either way.
type pfx struct{ hi, lo uint64 }

// prefixOf packs the first 16 bytes of k.
func prefixOf(k string) pfx {
	return pfx{hi: slab.KeyPrefix(k, 0), lo: slab.KeyPrefix(k, 8)}
}

// kref locates a key in the tree's key slab: length in the low 16 bits,
// chunk offset in the next 32, chunk index in the top 16. Key regions are
// never overwritten, so zero-copy string views of them are sound.
type kref uint64

func makeKref(r slab.Ref, n int) kref {
	if n > 0xffff {
		panic("btree: key too long")
	}
	return kref(uint64(n) | uint64(uint32(r))<<16 | (uint64(r)>>32)<<48)
}

func (k kref) ref() slab.Ref { return slab.Ref(uint64(k)>>48<<32 | uint64(k)>>16&0xffffffff) }
func (k kref) len() int      { return int(k & 0xffff) }

// vref locates a row's field payload in the tree's value slab:
// fieldsLen(32) | shape(32) packed alongside the region ref.
type vref struct {
	ref  slab.Ref
	meta uint64
}

type node struct {
	leaf     bool
	keys     []kref // internal: separators (len == len(children)-1); leaf: entry keys
	pfxs     []pfx  // keys[i]'s 16-byte prefix, kept parallel to keys
	children []*node
	vals     []vref
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

	keySlab slab.Slab
	valSlab slab.Slab
	shapes  slab.ShapeTable

	pool pool

	// pending is the buffered load batch, in fixed chunks of pendingChunk
	// entries so it never regrows; the tree is built from it on first use
	// (see Load and Seal). Keys and payloads are already in the slabs, so
	// each chunk is pointer-free.
	pending [][]pentry
	// sealed is set by the first Seal, which every accessor calls: from
	// then on the tree takes no Load.
	sealed bool
}

// pendingChunk is the load batch's full chunk length: 8,192 entries,
// 192 KiB. The first five chunks double up to it from 256 entries, so a
// small tree's batch stays small.
const pendingChunk = 8192

// pentry is one buffered load record: its key ref and its ingested
// payload. The key's prefix is recomputed from the key slab when the batch
// is built, which keeps the batch at 24 bytes a record.
type pentry struct {
	kr kref
	v  vref
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
	if leaf {
		c := t.cfg.LeafCap + 1
		n.keys, n.pfxs, n.vals = make([]kref, 0, c), make([]pfx, 0, c), make([]vref, 0, c)
	} else {
		c := t.cfg.InternalCap
		n.keys, n.pfxs, n.children = make([]kref, 0, c), make([]pfx, 0, c), make([]*node, 0, c+1)
	}
	return n
}

// keyStr returns the key bytes for kr as a zero-copy string view.
func (t *Tree) keyStr(kr kref) string { return t.keySlab.String(kr.ref(), kr.len()) }

// ingestKey copies key into the key slab.
func (t *Tree) ingestKey(key string) kref {
	return makeKref(t.keySlab.AppendString(key), len(key))
}

// ingestFields interns the layout and copies the payload into the value
// slab.
func (t *Tree) ingestFields(fields [][]byte) vref {
	shape, n := t.shapes.Intern(fields)
	ref, buf := t.valSlab.Alloc(n)
	p := 0
	for _, f := range fields {
		p += copy(buf[p:], f)
	}
	return vref{ref: ref, meta: uint64(uint32(n)) | uint64(shape)<<32}
}

// replace overwrites an existing row's payload. Same shape — the steady
// state, since update workloads rewrite like-sized fields — writes the
// bytes in place; a layout change carves a new region and abandons the
// old one (arena semantics, reclaimed only when the tree is dropped).
func (t *Tree) replace(v *vref, fields [][]byte) {
	shape, n := t.shapes.Intern(fields)
	if uint32(v.meta>>32) == shape {
		buf := t.valSlab.View(v.ref, n)
		p := 0
		for _, f := range fields {
			p += copy(buf[p:], f)
		}
		return
	}
	*v = t.ingestFields(fields)
}

// view returns the field view for a row.
func (t *Tree) view(v vref) slab.FieldsView {
	return slab.SlabView(
		t.valSlab.View(v.ref, int(uint32(v.meta))),
		t.shapes.Ends(uint32(v.meta>>32)),
	)
}

// keyLess reports keys[i] < k, resolving by prefix words when they differ.
func (t *Tree) keyLess(n *node, i int, k string, kp pfx) bool {
	p := n.pfxs[i]
	if p.hi != kp.hi {
		return p.hi < kp.hi
	}
	if p.lo != kp.lo {
		return p.lo < kp.lo
	}
	return t.keyStr(n.keys[i]) < k
}

// keyGreater reports keys[i] > k.
func (t *Tree) keyGreater(n *node, i int, k string, kp pfx) bool {
	p := n.pfxs[i]
	if p.hi != kp.hi {
		return p.hi > kp.hi
	}
	if p.lo != kp.lo {
		return p.lo > kp.lo
	}
	return t.keyStr(n.keys[i]) > k
}

// searchGE returns the first index with keys[i] >= k
// (sort.SearchStrings equivalent, prefix-accelerated).
func (t *Tree) searchGE(n *node, k string, kp pfx) int {
	lo, hi := 0, len(n.keys)
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

// searchGT returns the first index with keys[i] > k: the child index for a
// descent (children[i] covers keys < keys[i]).
func (t *Tree) searchGT(n *node, k string, kp pfx) int {
	lo, hi := 0, len(n.keys)
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
// are copied into the tree's slabs immediately (the caller's slices are not
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
	last := len(t.pending) - 1
	if last < 0 || len(t.pending[last]) == cap(t.pending[last]) {
		size := pendingChunk
		if last < 4 {
			size >>= 4 - last // 256, 512, …, 4096, then 8,192 for good
		}
		t.pending = append(t.pending, make([]pentry, 0, size))
		last++
	}
	t.pending[last] = append(t.pending[last], pentry{kr: t.ingestKey(key), v: t.ingestFields(fields)})
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
	if t.pending != nil {
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
			if i < len(n.keys) && t.keyStr(n.keys[i]) == key {
				return t.view(n.vals[i]), true, io
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
	t.put(key, prefixOf(key), t.ingestKey(key), t.ingestFields(fields), &io)
	return io
}

// put inserts a pre-ingested entry. A duplicate key abandons the fresh key
// region and repoints the row at the fresh payload (last write wins).
func (t *Tree) put(key string, kp pfx, kr kref, v vref, io *IOStats) {
	sep, sepPfx, right := t.insert(t.root, key, kp, kr, v, io)
	if right != nil {
		newRoot := t.newNode(false)
		newRoot.keys = append(newRoot.keys, sep)
		newRoot.pfxs = append(newRoot.pfxs, sepPfx)
		newRoot.children = append(newRoot.children, t.root, right)
		t.root = newRoot
		t.height++
		t.admit(io, newRoot)
	}
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
	found := i < len(n.keys) && t.keyStr(n.keys[i]) == key
	t.touch(&io, n, found)
	if found {
		t.replace(&n.vals[i], fields)
	}
	return found, io
}

// insert descends to the leaf; returns a separator (with its prefix) and
// new right node if this subtree split.
func (t *Tree) insert(n *node, key string, kp pfx, kr kref, v vref, io *IOStats) (kref, pfx, *node) {
	t.touch(io, n, true)
	if n.leaf {
		i := t.searchGE(n, key, kp)
		if i < len(n.keys) && t.keyStr(n.keys[i]) == key {
			n.vals[i] = v
			return 0, pfx{}, nil
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = kr
		n.pfxs = append(n.pfxs, pfx{})
		copy(n.pfxs[i+1:], n.pfxs[i:])
		n.pfxs[i] = kp
		n.vals = append(n.vals, vref{})
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = v
		t.n++
		if len(n.keys) <= t.cfg.LeafCap {
			return 0, pfx{}, nil
		}
		return t.splitLeaf(n, io)
	}
	ci := t.searchGT(n, key, kp)
	sep, sepPfx, right := t.insert(n.children[ci], key, kp, kr, v, io)
	if right == nil {
		return 0, pfx{}, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.pfxs = append(n.pfxs, pfx{})
	copy(n.pfxs[ci+1:], n.pfxs[ci:])
	n.pfxs[ci] = sepPfx
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.children) <= t.cfg.InternalCap {
		return 0, pfx{}, nil
	}
	return t.splitInternal(n, io)
}

func (t *Tree) splitLeaf(n *node, io *IOStats) (kref, pfx, *node) {
	mid := len(n.keys) / 2
	right := t.newNode(true)
	right.keys = append(right.keys, n.keys[mid:]...)
	right.pfxs = append(right.pfxs, n.pfxs[mid:]...)
	right.vals = append(right.vals, n.vals[mid:]...)
	n.keys = n.keys[:mid]
	n.pfxs = n.pfxs[:mid]
	n.vals = n.vals[:mid]
	right.next = n.next
	n.next = right
	t.admit(io, right)
	// The separator shares the leaf key's slab region (key bytes are never
	// overwritten, so the shared view stays sound).
	return right.keys[0], right.pfxs[0], right
}

func (t *Tree) splitInternal(n *node, io *IOStats) (kref, pfx, *node) {
	midKey := len(n.keys) / 2
	sep, sepPfx := n.keys[midKey], n.pfxs[midKey]
	right := t.newNode(false)
	right.keys = append(right.keys, n.keys[midKey+1:]...)
	right.pfxs = append(right.pfxs, n.pfxs[midKey+1:]...)
	right.children = append(right.children, n.children[midKey+1:]...)
	n.keys = n.keys[:midKey]
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
		for i >= len(n.keys) {
			if n.next == nil {
				return out, io
			}
			n, i = n.next, 0
			t.touch(&io, n, false)
		}
		out = append(out, slab.Entry{Key: t.keyStr(n.keys[i]), Fields: t.view(n.vals[i])})
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
		entries += len(n.keys) - i
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

// SlabBytes returns the heap footprint of the tree's key and payload
// slabs (apmbench -memstats).
func (t *Tree) SlabBytes() int64 { return t.keySlab.Allocated() + t.valSlab.Allocated() }

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
