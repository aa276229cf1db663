// Package lsm implements a log-structured merge tree over the simulated
// cluster: commit log + memtable + SSTables with Bloom filters and
// size-tiered compaction. It is the storage engine of the Cassandra and
// HBase models. Reads consult the memtable then SSTables newest-first,
// paying a random disk I/O per probed table that misses the page cache;
// flushes and compactions run as background processes that contend for the
// node's disks and therefore perturb foreground latency exactly when the
// paper's systems did.
//
// The load is deferred. A tree buffers what LoadDirect gives it in
// flush-sized batches and replays the flush and compaction schedule on
// their sizes alone; Seal then builds each final table once, so a record
// is sorted, merged and hashed into a Bloom filter once instead of at
// every tier it would pass. Every reader, writer and accessor seals
// first, so the deferral is invisible: the sealed tree is the one
// per-record load builds. A loader seals explicitly
// (store.Store.SealNode) to run the build on its own goroutine. The load
// follows the contract of store.LoadAll: no LoadDirect after a seal, and
// no key repeated where a flush or a compaction would meet both versions.
package lsm

import (
	"slices"

	"repro/internal/bloom"
	"repro/internal/cluster"
	"repro/internal/memtable"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/sstable"
	"repro/internal/wal"
)

// BlockIO abstracts where SSTable blocks live. The default reads and writes
// the owning node's local disks; HBase substitutes a DFS-backed
// implementation that adds DataNode overhead.
type BlockIO interface {
	// ReadBlock pays for reading bytes at the given randomness.
	ReadBlock(p *sim.Proc, bytes int64, random bool)
	// WriteRun pays for writing a sequential run of bytes.
	WriteRun(p *sim.Proc, bytes int64)
}

// nodeIO is the default BlockIO: the node's own disks.
type nodeIO struct{ node *cluster.Node }

func (io nodeIO) ReadBlock(p *sim.Proc, bytes int64, random bool) {
	io.node.DiskRead(p, bytes, random)
}
func (io nodeIO) WriteRun(p *sim.Proc, bytes int64) {
	io.node.DiskWrite(p, bytes, false)
}

const (
	bloomFPP   = 0.01     // Bloom filter false-positive rate per SSTable
	blockBytes = 64 << 10 // I/O granularity for point reads
)

// Config parameterizes a tree.
type Config struct {
	Node       *cluster.Node
	FlushBytes int64            // memtable payload size that triggers a flush
	Overhead   sstable.Overhead // on-disk format cost
	CompactMin int              // size-tiered: tables per tier before compacting
	WALWindow  sim.Time         // group commit window
	WALSync    bool             // writers wait for group commit if true
	CacheBytes int64            // page cache available to this tree's data
	IO         BlockIO          // block storage; nil means the node's local disks
}

func (c *Config) defaults() {
	if c.FlushBytes == 0 {
		c.FlushBytes = 32 << 20
	}
	if c.CompactMin == 0 {
		c.CompactMin = 4
	}
	if c.WALWindow == 0 {
		c.WALWindow = 10 * sim.Millisecond
	}
	if c.IO == nil {
		c.IO = nodeIO{node: c.Node}
	}
}

// Tree is one node's LSM engine.
type Tree struct {
	cfg Config
	mem *memtable.Memtable
	// tables is an immutable, copy-on-write snapshot sorted by generation
	// descending (newest first). Flush and compaction publish a fresh slice
	// instead of mutating in place, so readers that park on simulated disk
	// I/O mid-read keep a consistent view by holding the slice header — no
	// per-read defensive copy needed.
	tables []*sstable.Table
	log    *wal.Log
	gen    int

	flushing   bool
	compacting bool

	tableBytes int64 // sum of SSTable DiskBytes
	// read-path statistics
	probes      int64
	bloomSkips  int64
	diskReads   int64
	memHits     int64
	compactions int64
	// scan-path statistics: tables positioned (paid an I/O charge) vs
	// pruned by key range without any I/O.
	scanPositioned int64
	scanPruned     int64

	// sealed is set by the first Seal, which every accessor calls: from
	// then on the tree takes no LoadDirect.
	sealed bool
	// bulk is the deferred load in progress, nil when none is.
	bulk *bulkLoad
}

// New creates an empty tree.
func New(cfg Config) *Tree {
	cfg.defaults()
	return &Tree{
		cfg: cfg,
		mem: memtable.New(),
		log: wal.New(cfg.Node, cfg.WALWindow),
	}
}

func payloadBytes(key string, fields [][]byte) int64 {
	b := int64(len(key))
	for _, f := range fields {
		b += int64(len(f))
	}
	return b
}

// Put appends to the commit log and inserts into the memtable, triggering a
// background flush when the memtable is full.
func (t *Tree) Put(p *sim.Proc, key string, fields [][]byte) {
	t.Seal()
	t.log.Append(p, payloadBytes(key, fields), t.cfg.WALSync)
	t.mem.Put(key, fields)
	t.maybeFlush(p.Engine())
}

// PutDeferred inserts without charging foreground I/O time: the caller has
// already paid for the batched transfer (HBase's client write buffer). WAL
// bytes are accounted and background flush/compaction still run with full
// timing, so heavy deferred writes still generate the disk load that slows
// concurrent reads.
func (t *Tree) PutDeferred(e *sim.Engine, key string, fields [][]byte) {
	t.Seal()
	t.log.AppendDirect(payloadBytes(key, fields))
	t.mem.Put(key, fields)
	t.maybeFlush(e)
}

// missProb returns the probability that an SSTable read misses the page
// cache, from the ratio of cache to on-disk data.
func (t *Tree) missProb() float64 {
	if t.tableBytes <= 0 || t.cfg.CacheBytes >= t.tableBytes {
		return 0
	}
	return 1 - float64(t.cfg.CacheBytes)/float64(t.tableBytes)
}

// chargeTableRead pays for one table probe's I/O if the block is not cached.
func (t *Tree) chargeTableRead(p *sim.Proc) {
	if miss := t.missProb(); miss > 0 && p.Rand().Float64() < miss {
		t.diskReads++
		t.cfg.IO.ReadBlock(p, blockBytes, true)
	}
}

// Get reads key, probing memtable then tables newest-first. t.tables is an
// immutable copy-on-write snapshot sorted newest-generation-first, so
// holding the slice header across disk parks is safe (a concurrent
// compaction publishes a new slice, never mutates this one), and the first
// confirmed hit cannot be shadowed by any table probed later — older
// generations are skipped entirely instead of probed and discarded.
func (t *Tree) Get(p *sim.Proc, key string) (slab.FieldsView, bool) {
	t.Seal()
	if v, ok := t.mem.Get(key); ok {
		t.memHits++
		return v, true
	}
	if len(t.tables) == 0 {
		return slab.FieldsView{}, false
	}
	h := bloom.HashKey(key) // one hash probes every table's filter
	for _, tab := range t.tables {
		if !tab.MayContain(key, h) {
			t.bloomSkips++
			continue
		}
		t.probes++
		t.chargeTableRead(p)
		if v, ok := tab.Get(key); ok {
			return v, true
		}
	}
	return slab.FieldsView{}, false
}

// memtableGen orders the memtable above every SSTable generation when
// merging scan sources.
const memtableGen = 1 << 30

// scanSource is one cursor feeding the k-way merge in Scan: the memtable's
// B+-tree leaf iterator or an SSTable iterator. A memtable iterator is
// invalidated by any Put; Scan opens its cursors only after its last
// park and drains them without parking, so no write lands while one is
// held.
type scanSource struct {
	gen   int
	mem   memtable.Iterator // leaf cursor; only valid when isMem
	tab   sstable.Iterator  // table cursor; only valid when !isMem
	isMem bool
}

// key is the current key alone: the merge heap compares keys, and only an
// emitted row needs its entry.
func (s *scanSource) key() string {
	if s.isMem {
		return s.mem.Key()
	}
	return s.tab.Key()
}

func (s *scanSource) entry() slab.Entry {
	if s.isMem {
		return s.mem.Entry()
	}
	return s.tab.Entry()
}

// advance moves to the next entry and reports whether one exists.
func (s *scanSource) advance() bool {
	if s.isMem {
		s.mem.Next()
		return s.mem.Valid()
	}
	s.tab.Next()
	return s.tab.Valid()
}

// mergeHeap is a binary min-heap of scan sources ordered by (current key,
// generation descending): the top is always the next output entry and,
// among duplicate keys, the newest version surfaces first.
type mergeHeap []scanSource

func (h mergeHeap) before(a, b int) bool {
	ka, kb := h[a].key(), h[b].key()
	if ka != kb {
		return ka < kb
	}
	return h[a].gen > h[b].gen
}

func (h mergeHeap) down(i int) {
	for {
		min := i
		if l := 2*i + 1; l < len(h) && h.before(l, min) {
			min = l
		}
		if r := 2*i + 2; r < len(h) && h.before(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Scan returns up to count entries with keys >= start, merged across the
// memtable and all tables (newest generation wins per key). All simulated
// charges (table positioning I/O and its cache-miss RNG draws) land before
// the merge starts; the k-way heap merge then pulls entries lazily, so it
// never reads past the count-th distinct key.
func (t *Tree) Scan(p *sim.Proc, start string, count int) []slab.Entry {
	t.Seal()
	// Snapshot both layers before parking on disk charges: t.tables is COW
	// (the slice header is a consistent view) and t.mem must be captured
	// with it — a flush during a park swaps t.mem and installs the flushed
	// table into a slice this snapshot doesn't include, so reading the
	// post-park memtable would silently drop those entries. Once swapped
	// out the captured memtable is frozen; until then writes landing during
	// the parks remain visible, so like the modeled systems a scan is not
	// snapshot-isolated against concurrent writers — it sees the state as
	// of its last positioning I/O.
	tabs := t.tables
	mem := t.mem
	// Prune tables whose key range cannot intersect the scan: the scan
	// covers [start, +inf) (it is bounded by count, not by an end key), so
	// only tables with maxKey < start are provably disjoint — they skip
	// the positioning charge entirely, the mirror of Get's range check in
	// MayContain. Fewer charges also means fewer cache-miss RNG draws, so
	// landing this shifted scan-heavy (RS/RSW) cell results once.
	live := make([]*sstable.Table, 0, len(tabs))
	for _, tab := range tabs {
		if _, maxKey := tab.KeyRange(); tab.Len() == 0 || maxKey < start {
			t.scanPruned++
			continue
		}
		t.scanPositioned++
		// One positioning I/O per table touched plus sequential transfer.
		t.chargeTableRead(p)
		live = append(live, tab)
	}
	// The merge never parks, so the sources cannot change under it: no
	// Put reaches the memtable while its iterator is held.
	h := make(mergeHeap, 0, len(live)+1)
	if it := mem.SeekIter(start); it.Valid() {
		h = append(h, scanSource{gen: memtableGen, mem: it, isMem: true})
	}
	for _, tab := range live {
		if it := tab.SeekIter(start); it.Valid() {
			h = append(h, scanSource{gen: tab.Gen, tab: it})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	out := make([]slab.Entry, 0, count)
	for len(out) < count && len(h) > 0 {
		// First occurrence of a key comes from the newest generation
		// (heap order); shadowed older versions are skipped here.
		if n := len(out); n == 0 || out[n-1].Key != h[0].key() {
			out = append(out, h[0].entry())
		}
		if h[0].advance() {
			h.down(0)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			h.down(0)
		}
	}
	return out
}

// maybeFlush swaps the memtable and writes it out in the background.
func (t *Tree) maybeFlush(e *sim.Engine) {
	if t.mem.Bytes() < t.cfg.FlushBytes || t.flushing {
		return
	}
	t.flushing = true
	full := t.mem
	t.mem = memtable.New()
	e.Go("lsm-flush", func(p *sim.Proc) {
		t.gen++
		// The swapped-out memtable takes no more writes, so the table
		// adopts its payload slab instead of copying it; scans that
		// captured it keep reading the frozen tree.
		tab := sstable.FromMemtable(t.gen, full, t.cfg.Overhead, bloomFPP)
		t.cfg.IO.WriteRun(p, tab.DiskBytes)
		t.installTable(tab, full.Bytes())
		t.flushing = false
		t.maybeCompact(p.Engine())
	})
}

// installTable publishes a freshly flushed table. Flushes are serialized and
// bump t.gen, so tab is always the newest generation: prepend it to a new
// slice (copy-on-write — readers may hold the old one across disk parks).
func (t *Tree) installTable(tab *sstable.Table, walPayload int64) {
	tables := make([]*sstable.Table, 0, len(t.tables)+1)
	tables = append(tables, tab)
	tables = append(tables, t.tables...)
	t.tables = tables
	t.tableBytes += tab.DiskBytes
	t.cfg.Node.AddDiskUsage(tab.DiskBytes)
	t.log.Truncate(walPayload)
}

// tier buckets a table size for size-tiered compaction.
func tier(bytes int64) int {
	t := 0
	for bytes > 4<<20 {
		bytes >>= 2
		t++
	}
	return t
}

// maxTiers bounds tier over int64 sizes: each tier is 4x the one below.
const maxTiers = 32

// pickCompaction is the size-tiered compaction policy, the one place it
// lives: given table sizes in table order (newest first), it appends to
// dst the indices, ascending, of the tables in the fullest tier with at
// least compactMin members (the lower tier on ties) and returns the
// extended slice; it appends nothing when no tier is that full. The
// choice is a pure function of the sizes: same-seed runs have to pick
// the same victims or table layouts — and with them every downstream RNG
// draw — diverge between runs.
func pickCompaction(dst []int, sizes []int64, compactMin int) []int {
	var count [maxTiers]int
	for _, s := range sizes {
		count[tier(s)]++
	}
	best := -1
	for tr, n := range count {
		if n > 0 && n >= compactMin && (best < 0 || n > count[best]) {
			best = tr
		}
	}
	if best < 0 {
		return dst
	}
	for i, s := range sizes {
		if tier(s) == best {
			dst = append(dst, i)
		}
	}
	return dst
}

// pickVictims applies pickCompaction to the live tables.
func (t *Tree) pickVictims() []*sstable.Table {
	sizes := make([]int64, len(t.tables))
	for i, tab := range t.tables {
		sizes[i] = tab.DiskBytes
	}
	idxs := pickCompaction(nil, sizes, t.cfg.CompactMin)
	if len(idxs) == 0 {
		return nil
	}
	victims := make([]*sstable.Table, len(idxs))
	for i, idx := range idxs {
		victims[i] = t.tables[idx]
	}
	return victims
}

// maybeCompact runs one size-tiered compaction in the background.
func (t *Tree) maybeCompact(e *sim.Engine) {
	if t.compacting {
		return
	}
	victims := t.pickVictims()
	if victims == nil {
		return
	}
	t.compacting = true
	var inBytes int64
	for _, v := range victims {
		inBytes += v.DiskBytes
	}
	e.Go("lsm-compact", func(p *sim.Proc) {
		t.cfg.IO.ReadBlock(p, inBytes, false)
		merged := sstable.Merge(victims, t.cfg.Overhead, bloomFPP)
		t.cfg.IO.WriteRun(p, merged.DiskBytes)
		t.replaceTables(victims, merged)
		t.compactions++
		t.compacting = false
		t.maybeCompact(p.Engine())
	})
}

// newestFirst inserts x into a table list sorted by generation
// descending, as its merged replacement goes in: above every older
// generation.
func newestFirst[T any](list []T, x T, gen func(T) int) []T {
	at := slices.IndexFunc(list, func(y T) bool { return gen(x) > gen(y) })
	if at < 0 {
		at = len(list)
	}
	return slices.Insert(list, at, x)
}

// replaceTables swaps victims for merged, updating accounting. The new list
// is built copy-on-write (readers may hold the old slice across disk parks)
// and keeps the newest-generation-first order.
func (t *Tree) replaceTables(victims []*sstable.Table, merged *sstable.Table) {
	var deadBytes int64
	for _, v := range victims {
		deadBytes += v.DiskBytes
	}
	kept := make([]*sstable.Table, 0, len(t.tables)-len(victims)+1)
	for _, tab := range t.tables {
		if !slices.Contains(victims, tab) {
			kept = append(kept, tab)
		}
	}
	t.tables = newestFirst(kept, merged, func(tab *sstable.Table) int { return tab.Gen })
	t.tableBytes += merged.DiskBytes - deadBytes
	t.cfg.Node.AddDiskUsage(merged.DiskBytes - deadBytes)
}

// LoadDirect inserts a record without simulation timing, to bulk-load the
// tree before a measured run. The WAL and the node's disk usage are
// accounted as the load proceeds.
//
// The load is deferred: records are buffered in flush-sized batches
// (slab.Batch), each cut into an unfinished table (sstable.FromBatch)
// where a per-record load flushes, the compaction schedule is replayed on
// the tables' sizes alone, and Seal builds each final table once, from
// the batches it holds: a one-batch table as its flush would
// (Table.Finish), a merged one by the Merge a compaction runs. Seal runs
// on first use: every read, write, scan and accessor seals first, so the
// tree a caller sees is the one a per-record load would have built, down
// to its generations, entries, shapes, filters, payload chunks and
// memtable. A LoadDirect
// after Seal panics, and so does a key repeated within a flushed batch or
// within the batches one table merges, where a memtable replace or a
// compaction would drop a version.
func (t *Tree) LoadDirect(key string, fields [][]byte) {
	if t.sealed {
		panic("lsm: LoadDirect after Seal")
	}
	t.log.AppendDirect(payloadBytes(key, fields))
	if t.bulk == nil {
		t.bulk = new(bulkLoad)
	}
	b := t.bulk
	b.cur.Append(key, fields)
	if b.cur.Bytes() >= t.cfg.FlushBytes {
		t.cutRun()
	}
}

// bulkLoad is a deferred load: the records LoadDirect buffered, cut into
// the batches a per-record load would have flushed, and the table list
// it would have built from them, replayed on sizes alone.
type bulkLoad struct {
	runs []*sstable.Table // cut batches as unfinished tables, in cut order
	cur  slab.Batch       // the batch being filled: the memtable's records
	// tables is the replayed table list, newest first.
	tables []plannedTable
	// sizes and victims are pickCompaction's scratch.
	sizes   []int64
	victims []int
}

// plannedTable is one table of a replayed table list: its generation,
// its DiskBytes, and the runs it holds, in the order Merge adopts their
// payload chunks: a merge's inputs newest first, each one's runs in place.
type plannedTable struct {
	gen  int
	size int64
	runs []int
}

// cutRun ends the batch being filled where a per-record load flushes
// the memtable, and replays that flush and the compactions it triggers
// on sizes: for distinct keys a table's DiskBytes is the sum of its
// entries', so a merge's is the sum of its inputs'.
func (t *Tree) cutRun() {
	b := t.bulk
	t.log.Truncate(b.cur.Bytes())
	t.gen++
	r := sstable.FromBatch(t.gen, &b.cur, t.cfg.Overhead)
	b.runs = append(b.runs, r)
	size := r.DiskBytes
	t.tableBytes += size
	t.cfg.Node.AddDiskUsage(size)
	b.tables = slices.Insert(b.tables, 0, plannedTable{gen: t.gen, size: size, runs: []int{len(b.runs) - 1}})
	for {
		b.sizes = b.sizes[:0]
		for _, pt := range b.tables {
			b.sizes = append(b.sizes, pt.size)
		}
		b.victims = pickCompaction(b.victims[:0], b.sizes, t.cfg.CompactMin)
		if len(b.victims) == 0 {
			return
		}
		var merged plannedTable
		kept, v := b.tables[:0], 0
		for i, pt := range b.tables {
			if v < len(b.victims) && b.victims[v] == i {
				v++
				merged.gen = max(merged.gen, pt.gen)
				merged.size += pt.size
				merged.runs = append(merged.runs, pt.runs...)
				continue
			}
			kept = append(kept, pt)
		}
		b.tables = newestFirst(kept, merged, func(pt plannedTable) int { return pt.gen })
		t.compactions++
	}
}

// Seal ends the load phase: it builds each replayed table once from its
// runs and hands the unflushed batch to the memtable. Every read, write,
// scan and accessor seals first, so calling it is never needed for
// correctness; a loader calls it to end the load phase with the tree
// built, so the build runs on the loader's goroutine.
func (t *Tree) Seal() {
	t.sealed = true
	if t.bulk != nil {
		t.build()
	}
}

// build builds each replayed table once from its runs: one by
// Table.Finish, several by one Merge. A merge that drops an entry met a
// key repeated across runs, which breaks the load contract. The
// unflushed batch goes to the memtable in arrival order, as the
// per-record load put it there.
func (t *Tree) build() {
	b := t.bulk
	t.bulk = nil
	t.tables = make([]*sstable.Table, len(b.tables))
	for i, pt := range b.tables {
		if len(pt.runs) == 1 {
			t.tables[i], b.runs[pt.runs[0]] = b.runs[pt.runs[0]], nil
			t.tables[i].Finish(bloomFPP)
			continue
		}
		runs := make([]*sstable.Table, len(pt.runs))
		n := 0
		for j, r := range pt.runs {
			// A merged table holds its runs' payload chunks, not their
			// entries: drop each batch as its table is built.
			runs[j], b.runs[r] = b.runs[r], nil
			n += runs[j].Len()
		}
		if t.tables[i] = sstable.Merge(runs, t.cfg.Overhead, bloomFPP); t.tables[i].Len() < n {
			panic("sstable: merged runs repeat a key")
		}
	}
	b.cur.Replay(t.mem.Put)
}

// TableCount returns the number of live SSTables.
func (t *Tree) TableCount() int { t.Seal(); return len(t.tables) }

// DiskBytes returns the on-disk footprint of live tables.
func (t *Tree) DiskBytes() int64 { t.Seal(); return t.tableBytes }

// MemBytes returns the current memtable payload size.
func (t *Tree) MemBytes() int64 { t.Seal(); return t.mem.Bytes() }

// SlabBytes returns the retained heap footprint of the tree's record
// state: the memtable's arenas plus every live table's payload slab and
// entry metadata (apmbench -memstats).
func (t *Tree) SlabBytes() int64 {
	t.Seal()
	b := t.mem.SlabBytes()
	for _, tab := range t.tables {
		b += tab.SlabBytes()
	}
	return b
}

// Compactions returns how many compactions have completed.
func (t *Tree) Compactions() int64 { t.Seal(); return t.compactions }

// Stats returns read-path counters: table probes, Bloom-filter skips,
// actual disk reads, and memtable hits.
func (t *Tree) Stats() (probes, bloomSkips, diskReads, memHits int64) {
	t.Seal()
	return t.probes, t.bloomSkips, t.diskReads, t.memHits
}

// ScanStats returns scan-path counters: tables that paid a positioning
// charge vs tables pruned because their key range cannot intersect the
// scan. Tests pin the pruning contract with them.
func (t *Tree) ScanStats() (positioned, pruned int64) {
	t.Seal()
	return t.scanPositioned, t.scanPruned
}

// Log exposes the commit log (for stores that need its accounting).
func (t *Tree) Log() *wal.Log { t.Seal(); return t.log }
