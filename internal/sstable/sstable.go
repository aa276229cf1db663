// Package sstable implements immutable sorted string tables: the on-disk
// runs produced by LSM memtable flushes and compactions (Cassandra SSTables,
// HBase HFiles). Tables carry a Bloom filter and per-cell format overhead
// accounting, which is what makes the disk-usage experiment (paper Fig 17)
// reproducible: the stores blow up 75-byte records by storing schema and
// version information with every cell.
//
// A table's retained state is pointer-free: entries are fixed-size scalar
// records ([]entryMeta — key prefix pair and a slab.Rec) over key+field
// payload bytes held in a slab.Records store, so a multi-million-entry
// table is a few large buffers the garbage collector never has to walk.
// The flush path (FromMemtable) adopts the frozen memtable's records
// without copying a byte. A compaction adopts or copies by one rule:
// when every input entry survives, the merged table adopts its inputs'
// payload chunks by reference (slab.Adopt); when any entry died, it
// copies the survivors into its own slab, which is what reclaims dead
// versions. A deferred bulk load skips the intermediate tables: FromBatch
// turns each flush-sized slab.Batch into an unfinished table, and the
// load builds the table a chain of flushes and lossless compactions would
// have produced in one step: Finish for a table of one batch, one Merge
// of the batches for a table of several.
package sstable

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/bloom"
	"repro/internal/memtable"
	"repro/internal/slab"
)

// entryMeta is one entry: the key's 16-byte prefix pair for register
// compares, and the record.
type entryMeta struct {
	keyPfx  uint64
	keyPfx2 uint64
	rec     slab.Rec
}

// Table is an immutable sorted run.
type Table struct {
	Gen    int // generation: higher = newer data wins during merges
	meta   []entryMeta
	recs   slab.Records
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

// bytes returns the modeled on-disk size of the record r of rs.
func (ov Overhead) bytes(rs *slab.Records, r slab.Rec) int64 {
	return int64(r.Len()) + ov.PerEntry + int64(len(rs.Shapes.Ends(r.Shape())))*ov.PerCell
}

// keyAt returns entry i's key as a zero-copy view into the slab.
func (t *Table) keyAt(i int) string { return t.recs.Key(t.meta[i].rec) }

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

// finalize computes the disk accounting, then finishes the table.
func (t *Table) finalize(ov Overhead, fpp float64) {
	for i := range t.meta {
		t.DiskBytes += ov.bytes(&t.recs, t.meta[i].rec)
	}
	t.Finish(fpp)
}

// Finish computes the Bloom filter and key range of a table FromBatch
// built. The filter is built from the sorted entry sequence, so any
// construction path (flush handoff, test build, batch, merge) yields an
// identical filter for identical contents.
func (t *Table) Finish(fpp float64) {
	t.filter = bloom.New(len(t.meta), fpp)
	for i := range t.meta {
		t.filter.Add(t.keyAt(i))
	}
	if len(t.meta) > 0 {
		t.minKey = t.keyAt(0)
		t.maxKey = t.keyAt(len(t.meta) - 1)
	}
}

// FromMemtable flushes a memtable into a table without copying payload
// bytes: the memtable freezes, streams its leaf slots in key order and
// hands its record store over; only the fixed-size entryMeta records are
// built fresh. The memtable must not be written again (Freeze enforces
// this); outstanding readers of the frozen memtable remain valid because
// the slabs are shared, not moved.
func FromMemtable(gen int, m *memtable.Memtable, ov Overhead, fpp float64) *Table {
	t := &Table{Gen: gen, meta: make([]entryMeta, 0, m.Len())}
	t.recs = m.Freeze(func(e memtable.FlushEntry) {
		t.meta = append(t.meta, entryMeta{keyPfx: e.KeyPfx, keyPfx2: e.KeyPfx2, rec: e.Rec})
	})
	t.finalize(ov, fpp)
	return t
}

// FromBatch builds the table that flushing a memtable fed b's records
// would build, but unfinished: it has its entries in key order and its
// DiskBytes, and gets its filter and key range from Finish, or from the
// Merge that finishes several batches together. The table takes b's
// records (slab.Batch.Take), which a memtable fed them by Put would hold
// as they are, and leaves b empty for the next batch. It panics on a
// repeated key: a record the memtable would have replaced in place,
// which a batch cannot reproduce (see store.LoadAll for the contract).
func FromBatch(gen int, b *slab.Batch, ov Overhead) *Table {
	n := b.Len()
	items := slab.Items.Get()
	if cap(items) < n {
		items = make([]slab.PrefixItem, n)
	}
	items = items[:n]
	defer slab.Items.Put(items)
	if !b.Sort(items) {
		panic("sstable: a run repeats a key")
	}
	t := &Table{Gen: gen, meta: make([]entryMeta, n)}
	for k, it := range items {
		r := b.At(it.I)
		t.meta[k] = entryMeta{keyPfx: it.Hi, keyPfx2: it.Lo, rec: r}
		t.DiskBytes += ov.bytes(&b.Records, r)
	}
	t.recs = b.Take()
	return t
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
	return t.recs.Data.Allocated() + int64(len(t.meta))*32
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
		return t.recs.Fields(t.meta[i].rec), true
	}
	return slab.FieldsView{}, false
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
func (it Iterator) Entry() slab.Entry { return it.t.recs.Entry(it.t.meta[it.i].rec) }

// Key returns the current entry's key without building its field view.
// It must not be called on an invalid iterator.
func (it Iterator) Key() string { return it.t.keyAt(it.i) }

// Next advances to the following entry.
func (it *Iterator) Next() { it.i++ }

// compareKeys orders entry a, whose key is in store ra, against entry b,
// whose key is in rb: by key prefix pair in registers, by key bytes only
// on a double tie.
func compareKeys(a *entryMeta, ra *slab.Records, b *entryMeta, rb *slab.Records) int {
	switch {
	case a.keyPfx != b.keyPfx:
		return cmp.Compare(a.keyPfx, b.keyPfx)
	case a.keyPfx2 != b.keyPfx2:
		return cmp.Compare(a.keyPfx2, b.keyPfx2)
	}
	return strings.Compare(ra.Key(a.rec), rb.Key(b.rec))
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
		chunks += t.recs.Data.Chunks()
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	out := &Table{Gen: maxGen, meta: make([]entryMeta, 0, total)}
	var last *entryMeta // the last entry taken, in its table's store lastRecs
	var lastRecs *slab.Records
	for len(h) > 0 {
		c := &h[0]
		m := &c.rest[0]
		// Equal keys pop winner first, so only the first copy is kept.
		if last == nil || compareKeys(last, lastRecs, m, &c.t.recs) != 0 {
			last, lastRecs = m, &c.t.recs
			r := m.rec.WithShape(out.recs.Shapes.InternEnds(c.t.recs.Shapes.Ends(m.rec.Shape())))
			r.Ref += c.base
			out.meta = append(out.meta, entryMeta{keyPfx: m.keyPfx, keyPfx2: m.keyPfx2, rec: r})
		}
		if c.rest = c.rest[1:]; len(c.rest) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	if len(out.meta) == total {
		for _, t := range tables {
			out.recs.Data.Adopt(&t.recs.Data)
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
	if c := compareKeys(ma, &a.t.recs, mb, &b.t.recs); c != 0 {
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
		total += m.rec.Len()
	}
	out.recs.Data.Grow(total)
	for j := range out.meta {
		r := &out.meta[j].rec
		c, i, base := int(r.Ref>>32), 0, 0
		for base+tables[i].recs.Data.Chunks() <= c {
			base += tables[i].recs.Data.Chunks()
			i++
		}
		r.Ref = out.recs.Data.Append(tables[i].recs.Data.View(r.Ref-slab.Ref(base)<<32, r.Len()))
	}
}
