// Package hbase models Apache HBase 0.90 on Hadoop as benchmarked in the
// paper (§4.1): a master plus region servers colocated with HDFS DataNodes,
// ordered region partitioning of the (hashed) key space, and per-region
// LSM storage (HLog + MemStore + HFiles) whose blocks live in the simulated
// DFS.
//
// The asymmetry that dominates the paper's results is reproduced
// structurally:
//
//   - writes go through the client-side write buffer (autoFlush off in the
//     YCSB client), so an individual put costs microseconds and only every
//     Nth put pays the batched RPC — HBase's write latency is the lowest of
//     all systems (Fig 5/8/11), and throughput rises steeply with the write
//     ratio (Fig 9, Fig 18);
//   - reads traverse the 0.90-era RegionServer/DFSClient read path, which is
//     expensive per operation, so read throughput is the lowest and read
//     latency at saturation the highest (50–90 ms for Workload R, up to ~1 s
//     for Workload W where reads queue behind write batches, flushes and
//     compactions).
package hbase

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/lsm"
	"repro/internal/sim"
	"repro/internal/sstable"
	"repro/internal/store"
	"repro/internal/stores/base"
)

// Service-time calibration.
const (
	readCPU = 3100 * sim.Microsecond // RegionServer get() path cost per read
	// writeClientCPU is the client-side cost of buffering one put.
	writeClientCPU = 25 * sim.Microsecond
	// batchRecordCPU is the server-side cost per record in a batched put.
	// HBase 0.90's server-side put path is nearly as heavy as its read
	// path; the write buffer saves round trips and latency, not server
	// CPU. Calibrated so Workload W saturates a node around 14K ops/s
	// with high amortized write latency under load (Figs 9/11).
	batchRecordCPU = 550 * sim.Microsecond
	scanCPU        = 2800 * sim.Microsecond // scanner setup cost
	scanRowCPU     = 15 * sim.Microsecond   // per-returned-row cost
	handlers       = 30                     // RPC handler threads per region server
)

// overhead is HFile KeyValue format overhead: the full row key, column
// family, qualifier, timestamp and lengths are stored with every cell,
// which is why HBase used ~7.5 GB/node for 0.7 GB of raw data (Fig 17):
// 25-byte key + 75 row overhead + 5 cells x (10 + 120) = 750
// bytes/record -> 7.5 GB per 10M records.
var overhead = sstable.Overhead{PerEntry: 75, PerCell: 120}

// Options holds the deployment choices the harness varies: scale and the
// variant vocabulary.
type Options struct {
	// BatchRecords is the client write-buffer size in records; every
	// BatchRecords-th put pays the flush RPC (0 = 128).
	BatchRecords       int
	MemstoreFlushBytes int64
	// CompactMin is the compaction threshold: HFiles per tier before a
	// minor compaction merges them (hbase.hstore.compactionThreshold;
	// 0 = the default 4).
	CompactMin int
	// AutoFlush disables the client write buffer (ablation: every put pays
	// a full RPC, as with autoFlush=true).
	AutoFlush bool
}

func (o *Options) defaults() {
	if o.BatchRecords == 0 {
		o.BatchRecords = 128
	}
	if o.MemstoreFlushBytes == 0 {
		o.MemstoreFlushBytes = 16 << 20
	}
}

// Store is an HBase deployment.
type Store struct {
	opts    Options
	clust   *cluster.Cluster
	fs      *dfs.FS
	regions []*region
	splits  []string // region split keys: region i holds keys < splits[i]
	// down marks killed region servers (fault injection). HBase 0.90 has
	// no read replicas: a dead region server means its key range is simply
	// unavailable until restart + HLog replay.
	down      []bool
	downCount int
}

// region is one region hosted by the server on the same-index node.
type region struct {
	machine  *cluster.Node
	handlers *sim.Resource
	tree     *lsm.Tree
	buffered int // client write-buffer fill (records since last flush RPC)
}

// hbaseIO routes LSM block traffic through the DFS (RegionServer is
// colocated with its DataNode). Data blocks stay local, but every access
// pays the DataNode protocol cost.
type hbaseIO struct {
	fs      *dfs.FS
	file    *dfs.File
	node    int
	machine *cluster.Node
}

func (io hbaseIO) ReadBlock(p *sim.Proc, bytes int64, random bool) {
	if err := io.fs.ReadAt(p, io.file, 0, bytes, io.node, random); err != nil {
		// Empty file (no flush yet): pay the local read directly.
		io.machine.Compute(p, 150*sim.Microsecond)
		io.machine.DiskRead(p, bytes, random)
	}
}

func (io hbaseIO) WriteRun(p *sim.Proc, bytes int64) {
	// HFile runs are written through the colocated DataNode. Space is
	// accounted by the LSM layer, so back it out of the DFS's accounting
	// to avoid double counting.
	io.fs.Append(p, io.file, bytes, io.node)
	io.machine.AddDiskUsage(-bytes)
}

// New deploys HBase: one region (server) per node, regions pre-split evenly
// across the hashed key space (the YCSB key order is hashed, so ranges are
// uniformly loaded).
func New(c *cluster.Cluster, opts Options) *Store {
	opts.defaults()
	s := &Store{opts: opts, clust: c, fs: dfs.New(c)}
	n := len(c.Nodes)
	// Pre-split regions evenly across the numeric key space; fixed-width
	// keys make these valid lexicographic split points.
	step := ^uint64(0) / uint64(n)
	for i := 0; i < n-1; i++ {
		s.splits = append(s.splits, fmt.Sprintf("user%021d", uint64(i+1)*step))
	}
	for i, m := range c.Nodes {
		file := &dfs.File{Name: fmt.Sprintf("/hbase/region%d", i)}
		s.regions = append(s.regions, &region{
			machine:  m,
			handlers: sim.NewResource(c.Eng, "hbase-handlers", handlers),
			tree: lsm.New(lsm.Config{
				Node:       m,
				FlushBytes: opts.MemstoreFlushBytes,
				Overhead:   overhead,
				WALWindow:  10 * sim.Millisecond,
				WALSync:    false, // deferred log flush
				// Block cache plus OS cache: half the node's RAM.
				CacheBytes: m.Spec.RAMBytes / 2,
				CompactMin: opts.CompactMin,
				IO:         hbaseIO{fs: s.fs, file: file, node: i, machine: m},
			}),
		})
	}
	s.down = make([]bool, n)
	return s
}

// Name implements store.Store.
func (s *Store) Name() string { return "hbase" }

// SlabBytes implements store.Store: the retained footprint of every
// region's LSM tree (memstore arenas plus HFile slabs).
func (s *Store) SlabBytes() int64 {
	var total int64
	for _, r := range s.regions {
		total += r.tree.SlabBytes()
	}
	return total
}

// ScanStats implements store.ScanStatsReporter: scan-path positioning and
// pruning counters summed across every region's LSM tree.
func (s *Store) ScanStats() (positioned, pruned int64) {
	for _, r := range s.regions {
		pos, pr := r.tree.ScanStats()
		positioned += pos
		pruned += pr
	}
	return positioned, pruned
}

// regionIndex routes a key to its region by lexicographic range: the
// first region whose split key is greater than key.
func (s *Store) regionIndex(key string) int {
	return sort.Search(len(s.splits), func(i int) bool { return s.splits[i] > key })
}

// Read implements store.Store.
func (s *Store) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	ri := s.regionIndex(key)
	if s.down[ri] {
		return store.FieldsView{}, store.ErrUnavailable
	}
	r := s.regions[ri]
	var out store.FieldsView
	var ok bool
	base.Roundtrip(p, r.machine, base.ReqHeader, base.RecordWire, func() {
		r.handlers.Acquire(p)
		r.machine.Compute(p, readCPU)
		out, ok = r.tree.Get(p, key)
		r.handlers.Release()
	})
	if !ok {
		return store.FieldsView{}, store.ErrNotFound
	}
	return out, nil
}

func (s *Store) write(p *sim.Proc, key string, f store.Fields) error {
	ri := s.regionIndex(key)
	if s.down[ri] {
		return store.ErrUnavailable
	}
	r := s.regions[ri]
	if s.opts.AutoFlush {
		base.Roundtrip(p, r.machine, base.ReqHeader+base.RecordWire, base.AckWire, func() {
			r.handlers.Acquire(p)
			r.machine.Compute(p, batchRecordCPU*4) // per-op RPC path
			r.tree.Put(p, key, f)
			r.handlers.Release()
		})
		return nil
	}
	// Client write buffer: the put lands in the client buffer and the data
	// reaches the region's memstore when the buffer flushes. The model
	// applies the record immediately (deferred timing) and charges the
	// batched RPC to every BatchRecords-th writer.
	p.Sleep(writeClientCPU)
	r.tree.PutDeferred(p.Engine(), key, f)
	r.buffered++
	if r.buffered >= s.opts.BatchRecords {
		batch := r.buffered
		r.buffered = 0
		base.Roundtrip(p, r.machine, int64(batch)*base.RecordWire, base.AckWire, func() {
			r.handlers.Acquire(p)
			r.machine.Compute(p, sim.Time(batch)*batchRecordCPU)
			r.handlers.Release()
		})
	}
	return nil
}

// Insert implements store.Store.
func (s *Store) Insert(p *sim.Proc, key string, f store.Fields) error {
	return s.write(p, key, f)
}

// Update implements store.Store.
func (s *Store) Update(p *sim.Proc, key string, f store.Fields) error {
	return s.write(p, key, f)
}

// Scan implements store.Store. Regions store rows in key order, so a scan
// touches the region owning the start key and continues into successor
// regions only when the first cannot satisfy the count; HBase scans
// therefore cost about the same as reads (§5.4).
func (s *Store) Scan(p *sim.Proc, start string, count int) ([]store.Record, error) {
	var out []store.Record
	next := start
	for ri := s.regionIndex(start); ri < len(s.regions) && len(out) < count; ri++ {
		if s.down[ri] {
			// The scanner hits an unavailable region mid-range; without
			// region reassignment the scan cannot proceed.
			return nil, store.ErrUnavailable
		}
		r := s.regions[ri]
		want := count - len(out)
		base.Roundtrip(p, r.machine, base.ReqHeader, int64(want)*base.RecordWire, func() {
			r.handlers.Acquire(p)
			r.machine.Compute(p, scanCPU)
			rows := r.tree.Scan(p, next, want)
			r.machine.Compute(p, sim.Time(len(rows))*scanRowCPU)
			out = append(out, rows...)
			r.handlers.Release()
		})
		if ri < len(s.splits) {
			next = s.splits[ri]
		}
	}
	return out, nil
}

// Nodes implements store.Store: one region per node.
func (s *Store) Nodes() int { return len(s.regions) }

// LoadNodes implements store.Store: the region holding key.
func (s *Store) LoadNodes(dst []int, key string) []int { return append(dst, s.regionIndex(key)) }

// LoadNode implements store.Store.
func (s *Store) LoadNode(i int, key string, f store.Fields) { s.regions[i].tree.LoadDirect(key, f) }

// SealNode implements store.Store: it builds the LSM tree's
// deferred load.
func (s *Store) SealNode(i int) { s.regions[i].tree.Seal() }

// DiskUsage implements store.Store.
func (s *Store) DiskUsage() int64 {
	var total int64
	for _, r := range s.regions {
		total += r.tree.DiskBytes()
	}
	return total
}

// replayCPUPerByte is the CPU cost of reapplying one HLog byte on restart.
const replayCPUPerByte = 10 * sim.Nanosecond

// KillNode implements fault.Target: the region server dies; its HLog tail
// is dropped and its client write buffer is lost. The key range it serves
// errors until restart.
func (s *Store) KillNode(i int) {
	if s.down[i] {
		return
	}
	s.down[i] = true
	s.downCount++
	r := s.regions[i]
	r.buffered = 0 // the client-side buffer for a dead region is discarded
	r.tree.Log().Close()
}

// RestartNode implements fault.Target: HLog replay — re-read the un-flushed
// MemStore tail through the colocated DataNode and reapply it — before the
// region serves again.
func (s *Store) RestartNode(p *sim.Proc, i int) {
	if !s.down[i] {
		return
	}
	r := s.regions[i]
	if replay := r.tree.MemBytes(); replay > 0 {
		r.machine.DiskRead(p, replay, false)
		r.machine.Compute(p, sim.Time(replay)*replayCPUPerByte)
	}
	r.tree.Log().Reopen()
	s.down[i] = false
	s.downCount--
}

var _ store.Store = (*Store)(nil)
