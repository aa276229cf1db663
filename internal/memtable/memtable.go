// Package memtable implements an in-memory B+-tree ordered table, the
// write buffer of an LSM tree (Cassandra's Memtable, HBase's MemStore).
//
// The tree is cache-conscious and pointer-free. Every node is a run of
// uint64 words carved from chunked word arenas and addressed by word
// offsets instead of pointers. A node holds up to fanout sorted slots as
// parallel arrays: the slots' key prefix pairs interleaved (so a search
// walks one contiguous array of register-compared words), then their
// payload refs, their packed length/shape metas and, in inner nodes,
// their child offsets. Leaves are linked left to right for iteration.
// A lookup binary-searches one node per level, touching a handful of
// cache lines each, and the garbage collector sees a few large scalar
// buffers instead of millions of linked nodes. Records are kept in a
// slab.Records store, key and field bytes contiguous, with field layouts
// interned so uniform-schema records pay no per-record header storage.
//
// Field bytes are COPIED on insert — the memtable owns its payload
// memory — which is what lets callers reuse one fields buffer across
// operations (see store.Store).
//
// Ownership note: Get/Scan/iterators return views of the memtable's
// payload slab. A later Put that replaces a key with same-shaped fields
// overwrites those bytes in place, so a value read before a simulated
// park may observe the newer write after it — the same "state as of the
// last positioning I/O" semantics the LSM scan path documents. Entries
// already returned stay valid across later Puts (they view the payload
// slab, which never moves), but an Iterator does not: any Put may shift
// or split the leaf it is positioned in. Entries handed to a flush are
// frozen: flushing swaps the whole memtable out, Freeze hands the
// payload slab to the sstable without copying, and a frozen memtable's
// slabs are never written again.
package memtable

import "repro/internal/slab"

// Node layout, in words relative to the node's arena offset. Slot j's
// key prefix pair sits at nodePairs+2j: the key's first 16 bytes as two
// big-endian integers (zero padded), so a search orders slots with one
// or two register compares and falls back to a byte-wise compare only
// on a double tie — sound because zero-padded big-endian prefix order is
// a coarsening of lexicographic order. Slot j's ref and meta are the two
// words of a slab.Rec: a leaf slot's record, key bytes then field bytes
// in the payload slab, as the sstable's entries hold it. Inner slots
// are separators: slot j's key is the smallest key under child j (slot
// 0's key is never compared), and its ref points at that key's bytes in
// the payload slab for the rare full-key tie.
const (
	fanout = 64 // slots per node, leaf and inner alike

	nodeCount = 0 // live slots
	nodeNext  = 1 // leaves: offset of the next leaf, 0 = none
	nodePairs = 2
	nodeRefs  = nodePairs + 2*fanout
	nodeMetas = nodeRefs + fanout
	nodeKids  = nodeMetas + fanout // inner nodes only

	leafWords  = nodeKids
	innerWords = nodeKids + fanout

	// maxDepth bounds the tree's height. Every node but the rightmost of
	// its level is at least half full, so 16 levels hold far more
	// entries than memory does.
	maxDepth = 16
)

// Word-arena chunk sizing: 32K words = 256 KiB per chunk. Offsets pack
// (chunk, word) so a chunk append never invalidates existing offsets,
// and a node is always contiguous within one chunk.
const (
	arenaShift = 15
	arenaWords = 1 << arenaShift
	arenaMask  = arenaWords - 1
)

// wordArena is a chunked append-only uint64 arena addressed by packed
// (chunk<<15 | word) offsets.
type wordArena struct {
	chunks    [][]uint64
	allocated int64 // bytes of every chunk
}

// alloc carves words zeroed words, padding past a chunk tail rather than
// splitting a node across chunks.
func (a *wordArena) alloc(words int) uint64 {
	ci := len(a.chunks) - 1
	var c []uint64
	if ci >= 0 {
		c = a.chunks[ci]
	}
	if ci < 0 || cap(c)-len(c) < words {
		c = make([]uint64, 0, arenaWords)
		a.allocated += arenaWords * 8
		a.chunks = append(a.chunks, c)
		ci++
	}
	off := len(c)
	a.chunks[ci] = c[: off+words : cap(c)]
	return uint64(ci)<<arenaShift | uint64(off)
}

// keyPrefix is the shared big-endian prefix packing (see slab.KeyPrefix).
func keyPrefix(k string, off int) uint64 { return slab.KeyPrefix(k, off) }

// Memtable is an ordered map from string keys to field lists, implemented
// as a flat-arena B+-tree. It is not safe for concurrent use (simulated
// processes run one at a time).
type Memtable struct {
	arena wordArena
	recs  slab.Records

	root   uint64
	height int // inner levels above the leaves; 0 = the root is a leaf
	n      int
	bytes  int64
	frozen bool
}

// New creates an empty memtable.
func New() *Memtable {
	m := &Memtable{}
	// The first leaf occupies offset 0 and stays the leftmost leaf for
	// the tree's lifetime (splits move upper halves right), so offset 0
	// doubles as the nil next-link: no leaf ever links back to it.
	m.root = m.arena.alloc(leafWords)
	return m
}

// node returns the words of the node at off.
func (m *Memtable) node(off uint64) []uint64 {
	return m.arena.chunks[off>>arenaShift][off&arenaMask:]
}

// rec returns slot j's record.
func rec(nd []uint64, j int) slab.Rec {
	return slab.Rec{Ref: slab.Ref(nd[nodeRefs+j]), Meta: nd[nodeMetas+j]}
}

// slotKey returns slot j's key bytes as a zero-copy string view (key
// bytes are never overwritten, so the view is stable).
func (m *Memtable) slotKey(nd []uint64, j int) string { return m.recs.Key(rec(nd, j)) }

// search returns the first slot in [lo, n) whose key is >= k, or > k
// when strict, by binary search over the interleaved prefix pairs.
func (m *Memtable) search(nd []uint64, lo, n int, pfx, pfx2 uint64, k string, strict bool) int {
	hi := n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var above bool
		if p := nd[nodePairs+2*mid]; p != pfx {
			above = p > pfx
		} else if p2 := nd[nodePairs+2*mid+1]; p2 != pfx2 {
			above = p2 > pfx2
		} else if s := m.slotKey(nd, mid); strict {
			above = s > k
		} else {
			above = s >= k
		}
		if above {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// step is one inner node on a root-to-leaf path and the slot taken in it.
type step struct {
	node uint64
	slot int
}

// findLeaf descends to the leaf whose key range covers k. When path is
// non-nil, path[l] records the node at level l+1 and the child slot
// taken there, which is what a split needs to climb back up.
func (m *Memtable) findLeaf(pfx, pfx2 uint64, k string, path *[maxDepth]step) uint64 {
	x := m.root
	for lvl := m.height; lvl > 0; lvl-- {
		nd := m.node(x)
		// Child j covers [sep j, sep j+1): take the last separator <= k.
		j := m.search(nd, 1, int(nd[nodeCount]), pfx, pfx2, k, true) - 1
		if path != nil {
			path[lvl-1] = step{x, j}
		}
		x = nd[nodeKids+j]
	}
	return x
}

// seek returns the leaf covering k, that leaf's words, the first slot in
// it whose key is >= k (possibly one past its last slot), and whether
// that slot holds k itself. The prefix pair settles almost every miss
// without touching the slot's key bytes.
func (m *Memtable) seek(k string, path *[maxDepth]step) (leaf uint64, nd []uint64, j int, found bool) {
	pfx, pfx2 := keyPrefix(k, 0), keyPrefix(k, 8)
	leaf = m.findLeaf(pfx, pfx2, k, path)
	nd = m.node(leaf)
	j = m.search(nd, 0, int(nd[nodeCount]), pfx, pfx2, k, false)
	found = j < int(nd[nodeCount]) && nd[nodePairs+2*j] == pfx && nd[nodePairs+2*j+1] == pfx2 &&
		m.slotKey(nd, j) == k
	return leaf, nd, j, found
}

// slot is one slot's words, in flight between nodes during an insert.
type slot struct{ pfx, pfx2, ref, meta, kid uint64 }

// put writes s into slot j of node nd, which holds n slots and has room.
func put(nd []uint64, inner bool, n, j int, s slot) {
	if j < n {
		copy(nd[nodePairs+2*j+2:nodePairs+2*n+2], nd[nodePairs+2*j:nodePairs+2*n])
		copy(nd[nodeRefs+j+1:nodeRefs+n+1], nd[nodeRefs+j:nodeRefs+n])
		copy(nd[nodeMetas+j+1:nodeMetas+n+1], nd[nodeMetas+j:nodeMetas+n])
		if inner {
			copy(nd[nodeKids+j+1:nodeKids+n+1], nd[nodeKids+j:nodeKids+n])
		}
	}
	nd[nodePairs+2*j] = s.pfx
	nd[nodePairs+2*j+1] = s.pfx2
	nd[nodeRefs+j] = s.ref
	nd[nodeMetas+j] = s.meta
	if inner {
		nd[nodeKids+j] = s.kid
	}
	nd[nodeCount] = uint64(n + 1)
}

// first returns slot 0 of node nd as a separator pointing at node off.
func first(nd []uint64, off uint64) slot {
	return slot{nd[nodePairs], nd[nodePairs+1], nd[nodeRefs], nd[nodeMetas], off}
}

// onRightEdge reports whether the node at level lvl on path is the
// rightmost node of its level: every ancestor took its last slot.
func (m *Memtable) onRightEdge(path *[maxDepth]step, lvl int) bool {
	for l := lvl; l < m.height; l++ {
		if path[l].slot != int(m.node(path[l].node)[nodeCount])-1 {
			return false
		}
	}
	return true
}

// insert places s at slot j of node x at level lvl (0 = leaf), splitting
// full nodes bottom-up along path. A split normally moves the upper half
// into a new right sibling. An insert past the end of a level's
// rightmost node is an append instead: the full node stays full and s
// opens the new sibling alone, so key-ordered loads pack every node.
func (m *Memtable) insert(x uint64, lvl, j int, s slot, path *[maxDepth]step) {
	for {
		inner := lvl > 0
		nd := m.node(x)
		n := int(nd[nodeCount])
		if n < fanout {
			put(nd, inner, n, j, s)
			return
		}
		words := leafWords
		if inner {
			words = innerWords
		}
		right := m.arena.alloc(words)
		rn := m.node(right)
		if j == n && m.onRightEdge(path, lvl) {
			put(rn, inner, 0, 0, s)
		} else {
			const half = fanout / 2
			copy(rn[nodePairs:], nd[nodePairs+2*half:nodePairs+2*n])
			copy(rn[nodeRefs:], nd[nodeRefs+half:nodeRefs+n])
			copy(rn[nodeMetas:], nd[nodeMetas+half:nodeMetas+n])
			if inner {
				copy(rn[nodeKids:], nd[nodeKids+half:nodeKids+n])
			}
			nd[nodeCount] = half
			rn[nodeCount] = uint64(n - half)
			if j <= half {
				put(nd, inner, half, j, s)
			} else {
				put(rn, inner, n-half, j-half, s)
			}
		}
		if !inner {
			rn[nodeNext] = nd[nodeNext]
			nd[nodeNext] = right
		}
		sep := first(rn, right)
		if lvl == m.height {
			root := m.arena.alloc(innerWords)
			rt := m.node(root)
			put(rt, true, 0, 0, first(nd, x))
			put(rt, true, 1, 1, sep)
			m.root = root
			m.height++
			return
		}
		x, j, s = path[lvl].node, path[lvl].slot+1, sep
		lvl++
	}
}

// Put inserts or replaces the value for key, copying the field bytes into
// the memtable's slab. The caller keeps ownership of fields and may
// reuse it immediately. Put invalidates outstanding iterators.
func (m *Memtable) Put(key string, fields [][]byte) {
	if m.frozen {
		panic("memtable: Put on a frozen (flushed) memtable")
	}
	var path [maxDepth]step
	leaf, nd, j, found := m.seek(key, &path)
	if found {
		// A replace of another shape moves the record to a new region
		// (slab.Records.Replace); separators pointing at the old key
		// bytes stay valid.
		old := rec(nd, j)
		r := m.recs.Replace(old, fields)
		nd[nodeRefs+j], nd[nodeMetas+j] = uint64(r.Ref), r.Meta
		m.bytes += int64(r.FieldsLen() - old.FieldsLen())
		return
	}
	r := m.recs.Append(key, fields)
	m.insert(leaf, 0, j, slot{keyPrefix(key, 0), keyPrefix(key, 8), uint64(r.Ref), r.Meta, 0}, &path)
	m.n++
	m.bytes += int64(r.Len())
}

// Get returns a view of the fields for key and whether it was present.
func (m *Memtable) Get(key string) (slab.FieldsView, bool) {
	if _, nd, j, found := m.seek(key, nil); found {
		return m.recs.Fields(rec(nd, j)), true
	}
	return slab.FieldsView{}, false
}

// ScanAppend appends up to count entries with keys >= start, in key
// order, to dst and returns the extended slice, so a caller can reuse one
// buffer across scans.
func (m *Memtable) ScanAppend(dst []slab.Entry, start string, count int) []slab.Entry {
	for it := m.SeekIter(start); it.Valid() && count > 0; it.Next() {
		dst = append(dst, it.Entry())
		count--
	}
	return dst
}

// Len returns the number of entries.
func (m *Memtable) Len() int { return m.n }

// Bytes returns the payload size of all entries (keys + field bytes).
func (m *Memtable) Bytes() int64 { return m.bytes }

// SlabBytes returns the heap footprint of the memtable's arenas: node
// words plus payload slab capacity (apmbench -memstats).
func (m *Memtable) SlabBytes() int64 {
	return m.arena.allocated + m.recs.Data.Allocated()
}

// FlushEntry is one record inside the store handed over by Freeze, with
// its key's prefix pair.
type FlushEntry struct {
	KeyPfx, KeyPfx2 uint64
	Rec             slab.Rec
}

// Freeze marks the memtable immutable, streams every entry in key order
// to fn, and returns its record store for zero-copy reuse by the flushed
// sstable. The store is shared, not moved: outstanding readers of the
// frozen tree stay valid, since nothing writes to it again; the word
// arena is freed with the memtable while the payload chunks live on
// inside the table.
func (m *Memtable) Freeze(fn func(FlushEntry)) slab.Records {
	m.frozen = true
	for it := m.SeekIter(""); it.Valid(); it.Next() {
		nd, j := m.node(it.leaf), it.i
		fn(FlushEntry{KeyPfx: nd[nodePairs+2*j], KeyPfx2: nd[nodePairs+2*j+1], Rec: rec(nd, j)})
	}
	return m.recs
}

// Iterator is a forward cursor over the linked leaves. It is a small
// value type so callers can hold and advance one without allocating; the
// LSM scan path merges these against SSTable iterators. Any Put
// invalidates outstanding iterators: inserts shift slots within a leaf
// and splits move them to new leaves.
type Iterator struct {
	m    *Memtable
	leaf uint64
	i, n int // slot within leaf, and leaf's slot count
}

// SeekIter returns an iterator positioned at the first entry with key >=
// start.
func (m *Memtable) SeekIter(start string) Iterator {
	leaf, nd, j, _ := m.seek(start, nil)
	it := Iterator{m: m, leaf: leaf, i: j, n: int(nd[nodeCount])}
	if j == it.n {
		// start sorts after every key in its leaf; the answer, if any,
		// is the first slot of the next leaf.
		it.i--
		it.Next()
	}
	return it
}

// Valid reports whether the iterator points at an entry.
func (it Iterator) Valid() bool { return it.i < it.n }

// Entry returns the current entry. It must not be called on an invalid
// iterator.
func (it Iterator) Entry() slab.Entry { return it.m.recs.Entry(rec(it.m.node(it.leaf), it.i)) }

// Key returns the current entry's key without building its field view.
// It must not be called on an invalid iterator.
func (it Iterator) Key() string { return it.m.slotKey(it.m.node(it.leaf), it.i) }

// Next advances to the following entry in key order.
func (it *Iterator) Next() {
	if it.i++; it.i < it.n {
		return
	}
	if next := it.m.node(it.leaf)[nodeNext]; next != 0 {
		it.leaf, it.i, it.n = next, 0, int(it.m.node(next)[nodeCount])
	}
}
