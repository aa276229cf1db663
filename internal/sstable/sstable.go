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
// buffers flush batches as Runs, unfinished tables, and builds the table a
// chain of flushes and lossless compactions would have produced in one
// step: Run.Build for a table of one batch, one Merge of the batches for
// a table of several.
package sstable

import (
	"cmp"
	"slices"
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

func (t *Table) entryAt(i int) slab.Entry {
	return slab.Entry{Key: t.keyAt(i), Fields: t.fieldsAt(i)}
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
// memtable's B+-tree as a table that is not yet finished. Add lays each
// record out exactly as memtable.Put lays out a new key (payload carved
// from the run's slab and shape interned, both in arrival order), so for
// distinct keys the table Build finishes from a sorted run is the one
// FromMemtable would build from that memtable, and Merge over sorted runs
// builds the table that merging those flushed tables would build.
type Run struct {
	Table        // entries in arrival order until Sort, key order after
	bytes  int64 // key and field bytes: the memtable's Bytes for distinct keys
	cells  int64 // fields, for DiskBytes
	sorted bool
}

// NewRun returns an empty run with room for n entries.
func NewRun(n int) *Run { return &Run{Table: Table{meta: make([]entryMeta, 0, n)}} }

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

// Bytes returns the buffered key and field bytes.
func (r *Run) Bytes() int64 { return r.bytes }

// DiskBytes returns the DiskBytes of the table built from the run alone,
// by finalize's formula.
func (r *Run) DiskBytes(ov Overhead) int64 {
	return r.bytes + int64(len(r.meta))*ov.PerEntry + r.cells*ov.PerCell
}

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
		return strings.Compare(r.keyAt(int(a)), r.keyAt(int(b)))
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

// Build finishes a sorted run as the table a flush of its records
// (FromMemtable) builds: the table keeps the run's entries, payload slab
// and arrival-order shapes, and computes its filter, DiskBytes and key
// range once. Several runs are finished together by Merge instead.
func (r *Run) Build(ov Overhead, fpp float64) *Table {
	t := r.Table
	t.finalize(ov, fpp)
	return &t
}

// Unflushed puts the run's records into the memtable m in arrival order,
// as the per-record load would have. The run must not be sorted.
func (r *Run) Unflushed(m *memtable.Memtable) {
	if r.sorted {
		panic("sstable: Unflushed on a sorted run")
	}
	var fields [][]byte
	for i := range r.meta {
		v := r.fieldsAt(i)
		fields = fields[:0]
		for j := 0; j < v.Len(); j++ {
			fields = append(fields, v.Field(j))
		}
		m.Put(r.keyAt(i), fields)
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
func (t *Table) Scan(start string, count int) []slab.Entry {
	i := t.search(start)
	end := i + count
	if end > len(t.meta) {
		end = len(t.meta)
	}
	out := make([]slab.Entry, end-i)
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
func (it Iterator) Entry() slab.Entry { return it.t.entryAt(it.i) }

// Key returns the current entry's key without building its field view.
// It must not be called on an invalid iterator.
func (it Iterator) Key() string { return it.t.keyAt(it.i) }

// Next advances to the following entry.
func (it *Iterator) Next() { it.i++ }

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
// merge of the tables' heads through a heap: O(n log k) comparisons for n
// entries in k tables, in one pass with no intermediate map or re-sort.
// A load's merged tables hold dozens of runs, where a linear selection
// over the heads is several times slower. Comparisons read the entries'
// prefix words and touch key bytes only on a double tie.
//
// Payloads are adopted or copied, by whether any entry died. If every
// input entry survives (a load-phase compaction of distinct keys), the
// merged table adopts its inputs' payload chunks by reference and copies
// nothing. Otherwise the survivors' payloads are copied into one chunk
// sized to hold them exactly, so dead versions' bytes are reclaimed when
// the inputs are dropped. Either way the entries, shapes, filter,
// DiskBytes and key range are the same.
func Merge(tables []*Table, ov Overhead, fpp float64) *Table {
	total, maxGen, chunks := 0, 0, 0
	var buf [8]mergeCursor // a timed compaction's cursors stay on the stack
	h := mergeHeap(slices.Grow(buf[:0], len(tables)))
	for i, t := range tables {
		total += t.Len()
		maxGen = max(maxGen, t.Gen)
		if t.Len() > 0 {
			h = append(h, mergeCursor{rest: t.meta, t: t, in: i, base: slab.Ref(chunks) << 32})
		}
		chunks += t.data.Chunks()
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	out := &Table{Gen: maxGen, meta: make([]entryMeta, 0, total)}
	var last *entryMeta // the last entry taken, in its table's slab lastData
	var lastData *slab.Slab
	for len(h) > 0 {
		c := &h[0]
		m := &c.rest[0]
		// Equal keys pop winner first, so only the first copy is kept.
		if last == nil || compareKeys(last, lastData, m, &c.t.data) != 0 {
			last, lastData = m, &c.t.data
			shape := out.shapes.InternEnds(c.t.shapes.Ends(uint32(m.meta >> 48)))
			out.meta = append(out.meta, entryMeta{
				keyPfx:  m.keyPfx,
				keyPfx2: m.keyPfx2,
				ref:     m.ref + c.base,
				meta:    packMeta(int(m.meta&0xffff), int(m.meta>>16&0xffffffff), shape),
			})
		}
		if c.rest = c.rest[1:]; len(c.rest) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	if len(out.meta) == total {
		for _, t := range tables {
			out.data.Adopt(&t.data)
		}
	} else {
		copyPayloads(out, tables)
	}
	out.finalize(ov, fpp)
	return out
}

// mergeCursor is one input table's entries not yet merged. base is the
// index of the table's first payload chunk were every input's chunks laid
// end to end, as adopting them lays them, shifted into a ref's chunk
// bits: merged entries carry their ref rebased by it, which both
// addresses an adopted payload and names a copied one's source.
type mergeCursor struct {
	rest []entryMeta
	t    *Table
	in   int // the table's index among Merge's inputs
	base slab.Ref
}

// mergeHeap is Merge's min-heap of cursors, ordered by current key, then
// generation descending, then input index: equal keys pop in the order
// of the copy that wins first.
type mergeHeap []mergeCursor

// less settles almost every pair on the prefix words inline (compareKeys
// does not inline).
func (h mergeHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	ma, mb := &a.rest[0], &b.rest[0]
	if ma.keyPfx != mb.keyPfx {
		return ma.keyPfx < mb.keyPfx
	}
	if ma.keyPfx2 != mb.keyPfx2 {
		return ma.keyPfx2 < mb.keyPfx2
	}
	if c := compareKeys(ma, &a.t.data, mb, &b.t.data); c != 0 {
		return c < 0
	}
	if a.t.Gen != b.t.Gen {
		return a.t.Gen > b.t.Gen
	}
	return a.in < b.in
}

func (h mergeHeap) down(i int) {
	for {
		min := i
		if l := 2*i + 1; l < len(h) && h.less(l, min) {
			min = l
		}
		if r := 2*i + 2; r < len(h) && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// copyPayloads copies every merged entry's key+field bytes, in entry
// order, into one chunk of out's sized to hold them exactly. Entry refs
// arrive rebased as Merge rebases them: the source is the table whose
// chunks, laid end to end after the tables before it, hold the ref's
// chunk.
func copyPayloads(out *Table, tables []*Table) {
	total := 0
	for _, m := range out.meta {
		total += int(m.meta&0xffff) + int(m.meta>>16&0xffffffff)
	}
	out.data.Grow(total)
	for j := range out.meta {
		m := &out.meta[j]
		c, i, base := int(m.ref>>32), 0, 0
		for base+tables[i].data.Chunks() <= c {
			base += tables[i].data.Chunks()
			i++
		}
		n := int(m.meta&0xffff) + int(m.meta>>16&0xffffffff)
		ref, buf := out.data.Alloc(n)
		copy(buf, tables[i].data.View(m.ref-slab.Ref(base)<<32, n))
		m.ref = ref
	}
}
