// Package sstable implements immutable sorted string tables: the on-disk
// runs produced by LSM memtable flushes and compactions (Cassandra SSTables,
// HBase HFiles). Tables carry a Bloom filter and per-cell format overhead
// accounting, which is what makes the disk-usage experiment (paper Fig 17)
// reproducible: the stores blow up 75-byte records by storing schema and
// version information with every cell.
//
// A table's retained state is pointer-free: entries are fixed-size scalar
// records ([]entryMeta — key prefix pair, slab ref, packed lengths) over
// key+field payload bytes held in a slab.Slab, so a multi-million-entry
// table is a few large buffers the garbage collector never has to walk.
// The flush path (FromMemtable) adopts the frozen memtable's payload slab
// without copying a byte. A compaction adopts or copies by one rule:
// when every input entry survives, the merged table adopts its inputs'
// payload chunks by reference (slab.Adopt); when any entry died, it
// copies the survivors into its own slab, which is what reclaims dead
// versions. A deferred bulk load skips the intermediate tables: it
// buffers flush batches as Runs, and FromRuns builds the table a chain of
// flushes and lossless compactions would have produced, in one merge.
package sstable

import (
	"cmp"
	"strings"

	"repro/internal/bloom"
	"repro/internal/memtable"
	"repro/internal/slab"
)

// entryMeta is one entry's location: the key's 16-byte prefix pair for
// register compares, the payload ref (key bytes then field bytes,
// contiguous), and keyLen(16) | fieldsLen(32) | shape(16) packed.
type entryMeta struct {
	keyPfx  uint64
	keyPfx2 uint64
	ref     slab.Ref
	meta    uint64
}

func packMeta(keyLen, fieldsLen int, shape uint32) uint64 {
	if shape > 0xffff {
		panic("sstable: shape table overflow")
	}
	return uint64(keyLen) | uint64(fieldsLen)<<16 | uint64(shape)<<48
}

// Table is an immutable sorted run.
type Table struct {
	Gen    int // generation: higher = newer data wins during merges
	meta   []entryMeta
	data   slab.Slab
	shapes slab.ShapeTable
	filter *bloom.Filter
	minKey string
	maxKey string
	// DiskBytes is the modeled on-disk size: payload plus per-cell and
	// per-entry format overhead.
	DiskBytes int64
}

// Overhead describes the on-disk format cost of a table beyond raw payload.
type Overhead struct {
	PerEntry int64 // per row: row header, key length fields, index entry share
	PerCell  int64 // per column: column name, timestamp, length, version info
}

// keyAt returns entry i's key as a zero-copy view into the slab.
func (t *Table) keyAt(i int) string {
	m := t.meta[i]
	return t.data.String(m.ref, int(m.meta&0xffff))
}

// fieldsAt returns entry i's field view.
func (t *Table) fieldsAt(i int) slab.FieldsView {
	m := t.meta[i]
	keyLen := m.meta & 0xffff
	fieldsLen := int(m.meta >> 16 & 0xffffffff)
	return slab.SlabView(
		t.data.View(m.ref+slab.Ref(keyLen), fieldsLen),
		t.shapes.Ends(uint32(m.meta>>48)),
	)
}

func (t *Table) entryAt(i int) memtable.Entry {
	return memtable.Entry{Key: t.keyAt(i), Fields: t.fieldsAt(i)}
}

// search returns the index of the first entry with key >= key, resolving
// almost every probe with the prefix pair in registers.
func (t *Table) search(key string) int {
	pfx, pfx2 := slab.KeyPrefix(key, 0), slab.KeyPrefix(key, 8)
	lo, hi := 0, len(t.meta)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m := &t.meta[mid]
		var ge bool
		if m.keyPfx != pfx {
			ge = m.keyPfx > pfx
		} else if m.keyPfx2 != pfx2 {
			ge = m.keyPfx2 > pfx2
		} else {
			ge = t.keyAt(mid) >= key
		}
		if ge {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// finalize computes the Bloom filter, disk accounting and key range. The
// filter is built from the sorted entry sequence, so any construction
// path (flush handoff, test build, merge) yields an identical filter for
// identical contents.
func (t *Table) finalize(ov Overhead, fpp float64) {
	t.filter = bloom.New(len(t.meta), fpp)
	for i := range t.meta {
		t.filter.Add(t.keyAt(i))
		md := t.meta[i].meta
		keyLen := int64(md & 0xffff)
		fieldsLen := int64(md >> 16 & 0xffffffff)
		cells := int64(len(t.shapes.Ends(uint32(md >> 48))))
		t.DiskBytes += keyLen + ov.PerEntry + fieldsLen + cells*ov.PerCell
	}
	if len(t.meta) > 0 {
		t.minKey = t.keyAt(0)
		t.maxKey = t.keyAt(len(t.meta) - 1)
	}
}

// FromMemtable flushes a memtable into a table without copying payload
// bytes: the memtable freezes, streams its leaf slots in key order and
// hands its payload slab and shape table over; only the fixed-size
// entryMeta records are built fresh. The memtable must not be written
// again (Freeze enforces this); outstanding readers of the frozen
// memtable remain valid because the slabs are shared, not moved.
func FromMemtable(gen int, m *memtable.Memtable, ov Overhead, fpp float64) *Table {
	t := &Table{Gen: gen, meta: make([]entryMeta, 0, m.Len())}
	t.data, t.shapes = m.Freeze(func(e memtable.FlushEntry) {
		t.meta = append(t.meta, entryMeta{
			keyPfx:  e.KeyPfx,
			keyPfx2: e.KeyPfx2,
			ref:     e.Ref,
			meta:    packMeta(e.KeyLen, e.FieldsLen, e.Shape),
		})
	})
	t.finalize(ov, fpp)
	return t
}

// Run is one flush batch of a deferred bulk load: the records a memtable
// would hold between two load-phase flushes, buffered without the
// memtable's B+-tree. Add lays each record out exactly as memtable.Put
// lays out a new key (payload carved from the run's slab and shape
// interned, both in arrival order), so for distinct keys the table
// FromRuns builds from a run is the one FromMemtable would build from that
// memtable.
type Run struct {
	meta   []entryMeta // arrival order until Sort, key order after
	data   slab.Slab
	shapes slab.ShapeTable
	bytes  int64 // key and field bytes: the memtable's Bytes for distinct keys
	cells  int64 // fields, for DiskBytes
	sorted bool
}

// NewRun returns an empty run with room for n entries.
func NewRun(n int) *Run { return &Run{meta: make([]entryMeta, 0, n)} }

// Add buffers one record, copying its key and field bytes.
func (r *Run) Add(key string, fields [][]byte) {
	if len(key) > 0xffff {
		panic("sstable: key longer than 64 KiB")
	}
	shape, fieldsLen := r.shapes.Intern(fields)
	ref, buf := r.data.Alloc(len(key) + fieldsLen)
	p := copy(buf, key)
	for _, f := range fields {
		p += copy(buf[p:], f)
	}
	r.meta = append(r.meta, entryMeta{
		keyPfx:  slab.KeyPrefix(key, 0),
		keyPfx2: slab.KeyPrefix(key, 8),
		ref:     ref,
		meta:    packMeta(len(key), fieldsLen, shape),
	})
	r.bytes += int64(len(key) + fieldsLen)
	r.cells += int64(len(fields))
}

// Len returns the number of buffered records.
func (r *Run) Len() int { return len(r.meta) }

// Bytes returns the buffered key and field bytes.
func (r *Run) Bytes() int64 { return r.bytes }

// DiskBytes returns the DiskBytes of the table built from the run alone,
// by finalize's formula.
func (r *Run) DiskBytes(ov Overhead) int64 {
	return r.bytes + int64(len(r.meta))*ov.PerEntry + r.cells*ov.PerCell
}

func (r *Run) key(m *entryMeta) string { return r.data.String(m.ref, int(m.meta&0xffff)) }

// Sort orders the entries by key, as a flush streams them. It panics on
// a repeated key: a record the memtable would have replaced in place,
// which a run cannot reproduce (see store.LoadAll for the contract). The
// entries are ordered by slab.SortByPrefix, whose distinct result is the
// check of adjacent keys, then moved into that order in place.
func (r *Run) Sort() {
	r.sorted = true
	n := len(r.meta)
	items := slab.Items.Get()
	if cap(items) < n {
		items = make([]slab.PrefixItem, n)
	}
	items = items[:n]
	defer slab.Items.Put(items)
	for i := range r.meta {
		items[i] = slab.PrefixItem{Hi: r.meta[i].keyPfx, Lo: r.meta[i].keyPfx2, I: uint32(i)}
	}
	if !slab.SortByPrefix(items, func(a, b uint32) int {
		return strings.Compare(r.key(&r.meta[a]), r.key(&r.meta[b]))
	}) {
		panic("sstable: a run repeats a key")
	}
	// Entry k becomes old entry items[k].I: follow each cycle of the
	// permutation once, marking a filled slot by pointing it at itself.
	for k := range items {
		if items[k].I == uint32(k) {
			continue
		}
		first := r.meta[k]
		j := k
		for src := int(items[j].I); src != k; src = int(items[j].I) {
			r.meta[j] = r.meta[src]
			items[j].I = uint32(j)
			j = src
		}
		r.meta[j] = first
		items[j].I = uint32(j)
	}
}

// Unflushed puts the run's records into the memtable m in arrival order,
// as the per-record load would have. The run must not be sorted.
func (r *Run) Unflushed(m *memtable.Memtable) {
	if r.sorted {
		panic("sstable: Unflushed on a sorted run")
	}
	var fields [][]byte
	for i := range r.meta {
		e := &r.meta[i]
		keyLen := int(e.meta & 0xffff)
		data := r.data.View(e.ref+slab.Ref(keyLen), int(e.meta>>16&0xffffffff))
		v := slab.SlabView(data, r.shapes.Ends(uint32(e.meta>>48)))
		fields = fields[:0]
		for j := 0; j < v.Len(); j++ {
			fields = append(fields, v.Field(j))
		}
		m.Put(r.key(e), fields)
	}
}

// MergeOrder merges the keys of sorted runs and returns, for each entry of
// the merged sequence, the index of the run it comes from; FromRuns builds
// the table from it. It panics if two runs share a key: a merge would
// have dropped the older version, which FromRuns cannot reproduce.
//
// The runs are merged once, through a heap: O(n log k) for n entries in k
// runs, where the chain of merges it stands for re-merges every entry at
// each tier it passes.
func MergeOrder(runs []*Run) []uint32 {
	total := 0
	for _, r := range runs {
		total += len(r.meta)
	}
	order := make([]uint32, 0, total)
	h := runHeap{runs: runs, cur: make([]runCursor, 0, len(runs))}
	for i, r := range runs {
		if len(r.meta) > 0 {
			h.cur = append(h.cur, runCursor{rest: r.meta, run: i})
		}
	}
	for i := len(h.cur)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	var prev *entryMeta
	var prevData *slab.Slab
	for len(h.cur) > 0 {
		c := &h.cur[0]
		r, m := runs[c.run], &c.rest[0]
		// The output ascends, so a repeated key is the previous one.
		if prev != nil && compareKeys(prev, prevData, m, &r.data) == 0 {
			panic("sstable: merged runs repeat a key")
		}
		prev, prevData = m, &r.data
		order = append(order, uint32(c.run))
		if c.rest = c.rest[1:]; len(c.rest) == 0 {
			h.cur[0] = h.cur[len(h.cur)-1]
			h.cur = h.cur[:len(h.cur)-1]
		}
		h.down(0)
	}
	return order
}

// FromRuns builds the table that flushing each run into a table and
// merging those tables would build: entries, shapes, payload chunks,
// filter, DiskBytes and key range alike. runs must be sorted (Sort) and
// listed in the order the merges adopt their payload chunks: a merge's
// inputs newest first, each merged input's own runs in place. One run is a
// flush (FromMemtable), which keeps the run's slab, entries and shape
// table; several are a Merge in which every entry survives, which adopts
// the runs' chunks and re-interns shapes in output order, taking entries
// in order, which MergeOrder(runs) returned. The runs' payload chunks
// live on in the table; their entry arrays may be dropped.
func FromRuns(gen int, runs []*Run, order []uint32, ov Overhead, fpp float64) *Table {
	if len(runs) == 1 {
		r := runs[0]
		t := &Table{Gen: gen, meta: r.meta, data: r.data, shapes: r.shapes}
		t.finalize(ov, fpp)
		return t
	}
	out := &Table{Gen: gen, meta: make([]entryMeta, 0, len(order))}
	// next[i] is run i's first entry not yet taken; base[i] its first
	// chunk in the table's slab.
	next := make([]int, len(runs))
	base := make([]slab.Ref, len(runs))
	chunks := 0
	for i, r := range runs {
		base[i] = slab.Ref(chunks) << 32
		chunks += r.data.Chunks()
	}
	for _, i := range order {
		r := runs[i]
		m := &r.meta[next[i]]
		next[i]++
		shape := out.shapes.InternEnds(r.shapes.Ends(uint32(m.meta >> 48)))
		out.meta = append(out.meta, entryMeta{
			keyPfx:  m.keyPfx,
			keyPfx2: m.keyPfx2,
			ref:     m.ref + base[i],
			meta:    packMeta(int(m.meta&0xffff), int(m.meta>>16&0xffffffff), shape),
		})
	}
	for _, r := range runs {
		out.data.Adopt(&r.data)
	}
	out.finalize(ov, fpp)
	return out
}

// runCursor is one run's entries not yet merged, in MergeOrder's merge.
type runCursor struct {
	rest []entryMeta
	run  int
}

// runHeap is MergeOrder's min-heap of run cursors by current key.
type runHeap struct {
	runs []*Run
	cur  []runCursor
}

// less orders cursors by current key, settling almost every pair on the
// prefix words inline (compareKeys does not inline).
func (h *runHeap) less(a, b *runCursor) bool {
	ma, mb := &a.rest[0], &b.rest[0]
	if ma.keyPfx != mb.keyPfx {
		return ma.keyPfx < mb.keyPfx
	}
	if ma.keyPfx2 != mb.keyPfx2 {
		return ma.keyPfx2 < mb.keyPfx2
	}
	return compareKeys(ma, &h.runs[a.run].data, mb, &h.runs[b.run].data) < 0
}

func (h *runHeap) down(i int) {
	for {
		min := i
		if l := 2*i + 1; l < len(h.cur) && h.less(&h.cur[l], &h.cur[min]) {
			min = l
		}
		if r := 2*i + 2; r < len(h.cur) && h.less(&h.cur[r], &h.cur[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.cur[i], h.cur[min] = h.cur[min], h.cur[i]
		i = min
	}
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.meta) }

// KeyRange returns the smallest and largest keys.
func (t *Table) KeyRange() (string, string) { return t.minKey, t.maxKey }

// SlabBytes returns the heap footprint of the table's payload slab
// (apmbench -memstats). Shared flush-handoff chunks are attributed to
// the table, which outlives the memtable they came from, and adopted
// chunks to the merged table, which replaces its inputs.
func (t *Table) SlabBytes() int64 {
	return t.data.Allocated() + int64(len(t.meta))*32
}

// MayContain consults the key range and the Bloom filter; h is key's
// bloom.HashKey, computed once by a reader probing several tables.
func (t *Table) MayContain(key string, h bloom.Hash) bool {
	if len(t.meta) == 0 || key < t.minKey || key > t.maxKey {
		return false
	}
	return t.filter.MayContainHash(h)
}

// Get returns a view of the fields for key.
func (t *Table) Get(key string) (slab.FieldsView, bool) {
	i := t.search(key)
	if i < len(t.meta) && t.keyAt(i) == key {
		return t.fieldsAt(i), true
	}
	return slab.FieldsView{}, false
}

// Scan returns up to count entries with keys >= start.
func (t *Table) Scan(start string, count int) []memtable.Entry {
	i := t.search(start)
	end := i + count
	if end > len(t.meta) {
		end = len(t.meta)
	}
	out := make([]memtable.Entry, end-i)
	for j := range out {
		out[j] = t.entryAt(i + j)
	}
	return out
}

// FilterBytes returns the Bloom filter's memory footprint.
func (t *Table) FilterBytes() int64 { return t.filter.SizeBytes() }

// Iterator is a forward cursor over a table's entries. Tables are immutable,
// so iterators stay valid for the table's lifetime.
type Iterator struct {
	t *Table
	i int
}

// SeekIter returns an iterator positioned at the first entry with key >=
// start.
func (t *Table) SeekIter(start string) Iterator {
	return Iterator{t: t, i: t.search(start)}
}

// Valid reports whether the iterator points at an entry.
func (it Iterator) Valid() bool { return it.i < len(it.t.meta) }

// Entry returns the current entry. It must not be called on an invalid
// iterator.
func (it Iterator) Entry() memtable.Entry { return it.t.entryAt(it.i) }

// Key returns the current entry's key without building its field view.
// It must not be called on an invalid iterator.
func (it Iterator) Key() string { return it.t.keyAt(it.i) }

// Next advances to the following entry.
func (it *Iterator) Next() { it.i++ }

// compareEntries orders entry i of t against entry j of u by key.
func compareEntries(t *Table, i int, u *Table, j int) int {
	return compareKeys(&t.meta[i], &t.data, &u.meta[j], &u.data)
}

// compareKeys orders entry a, whose key is in slab da, against entry b,
// whose key is in db: by key prefix pair in registers, by key bytes only
// on a double tie.
func compareKeys(a *entryMeta, da *slab.Slab, b *entryMeta, db *slab.Slab) int {
	switch {
	case a.keyPfx != b.keyPfx:
		return cmp.Compare(a.keyPfx, b.keyPfx)
	case a.keyPfx2 != b.keyPfx2:
		return cmp.Compare(a.keyPfx2, b.keyPfx2)
	}
	return strings.Compare(da.String(a.ref, int(a.meta&0xffff)), db.String(b.ref, int(b.meta&0xffff)))
}

// Merge combines tables into one run; for duplicate keys the entry from the
// table with the highest generation wins (the earliest such table on a
// generation tie). The result's generation is the maximum input
// generation. Inputs are already sorted, so this is a streaming k-way
// merge: O(n·k) comparisons with one pass and no intermediate map or
// re-sort. Comparisons read the entries' prefix words and touch key bytes
// only on a double tie.
//
// Payloads are adopted or copied, by whether any entry died. If every
// input entry survives (a load-phase compaction of distinct keys), the
// merged table adopts its inputs' payload chunks by reference and copies
// nothing. Otherwise the survivors' payloads are copied into one chunk
// sized to hold them exactly, so dead versions' bytes are reclaimed when
// the inputs are dropped. Either way the entries, shapes, filter,
// DiskBytes and key range are the same.
func Merge(tables []*Table, ov Overhead, fpp float64) *Table {
	total := 0
	maxGen := 0
	for _, t := range tables {
		total += t.Len()
		if t.Gen > maxGen {
			maxGen = t.Gen
		}
	}
	// pos[i] is table i's cursor. base[i] is the index of table i's
	// first payload chunk were every input's chunks laid end to end, as
	// adopting them lays them: survivors carry their ref rebased by it,
	// which both addresses an adopted payload and names a copied one's
	// source.
	k := len(tables)
	scratch := make([]int, 2*k)
	pos, base := scratch[:k], scratch[k:]
	chunks := 0
	for i, t := range tables {
		base[i] = chunks
		chunks += t.data.Chunks()
	}
	out := &Table{Gen: maxGen, meta: make([]entryMeta, 0, total)}
	for {
		// Pick the smallest current key; among duplicates the entry from
		// the highest-generation table wins and the others are skipped.
		// Linear scan over k sources: compaction fan-in is small (a tier),
		// so this beats maintaining a heap.
		best := -1
		for i, t := range tables {
			if pos[i] == t.Len() {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			if c := compareEntries(t, pos[i], tables[best], pos[best]); c < 0 || c == 0 && t.Gen > tables[best].Gen {
				best = i
			}
		}
		if best < 0 {
			break
		}
		src, at := tables[best], pos[best]
		m := src.meta[at]
		shape := out.shapes.InternEnds(src.shapes.Ends(uint32(m.meta >> 48)))
		m.ref += slab.Ref(base[best]) << 32
		m.meta = packMeta(int(m.meta&0xffff), int(m.meta>>16&0xffffffff), shape)
		out.meta = append(out.meta, m)
		// Consume this key from every source. A table holds each key at
		// most once, so one step per source suffices.
		for i, t := range tables {
			if pos[i] < t.Len() && (i == best || compareEntries(t, pos[i], src, at) == 0) {
				pos[i]++
			}
		}
	}
	if len(out.meta) == total {
		for _, t := range tables {
			out.data.Adopt(&t.data)
		}
	} else {
		copyPayloads(out, tables, base)
	}
	out.finalize(ov, fpp)
	return out
}

// copyPayloads copies every merged entry's key+field bytes, in entry
// order, into one chunk of out's sized to hold them exactly. Entry refs
// arrive rebased by their source's chunk base in base: the source is the
// last table whose base is at most the ref's chunk (a table without
// chunks shares the next one's base and holds no entries).
func copyPayloads(out *Table, tables []*Table, base []int) {
	total := 0
	for _, m := range out.meta {
		total += int(m.meta&0xffff) + int(m.meta>>16&0xffffffff)
	}
	out.data.Grow(total)
	for j := range out.meta {
		m := &out.meta[j]
		c := int(m.ref >> 32)
		i := len(base) - 1
		for base[i] > c {
			i--
		}
		n := int(m.meta&0xffff) + int(m.meta>>16&0xffffffff)
		ref, buf := out.data.Alloc(n)
		copy(buf, tables[i].data.View(m.ref-slab.Ref(base[i])<<32, n))
		m.ref = ref
	}
}
