// Package mysql models the paper's MySQL setup (§4.6): independent
// single-node MySQL servers with InnoDB, sharded on the client side by the
// YCSB RDBMS client's hash ("which connects to the databases using JDBC and
// shards the data using a consistent hashing algorithm" — well balanced,
// unlike Jedis). Each server runs a B+tree with a buffer pool sized to the
// node's memory and writes a binary log, which the paper found doubles the
// disk footprint (§5.7).
//
// Scans reproduce the paper's pathology (§5.4–§5.5): the sharded client
// translates a scan into per-shard "SELECT ... WHERE key >= ?" queries
// issued sequentially, and InnoDB's MVCC makes range reads degrade when
// concurrent inserts pile up unpurged row versions. With 6% inserts
// (Workload RS) scans stay usable on small clusters; with 50% inserts
// (Workload RSW) version-chain traversal collapses throughput to a few
// operations per second, and fan-out over more shards multiplies the cost.
package mysql

import (
	"repro/internal/btree"
	"repro/internal/cluster"
	"repro/internal/hashring"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/stores/base"
	"repro/internal/wal"
)

// Service-time and storage calibration.
const (
	readCPU  = 290 * sim.Microsecond // server-side point SELECT cost (parse, plan, btree)
	writeCPU = 330 * sim.Microsecond // INSERT cost before log/btree I/O
	// updateCPU is the server-side cost of an in-place UPDATE ... WHERE
	// key = ?: one statement that locates the row and rewrites it, so it
	// lands between readCPU (it skips result serialization) and
	// readCPU+writeCPU (parse/plan and the index descent are paid once,
	// not twice).
	updateCPU = 370 * sim.Microsecond
	// scanRowCPU is the per-visited-row cost of a range SELECT.
	scanRowCPU = 900 * sim.Nanosecond
	// tailRowCPU is the per-row cost of the sharded client's unbounded
	// "key >= start" scan, which materializes the table tail until the
	// client abandons the cursor (§5.4: "in the case of MySQL this is
	// inefficient").
	tailRowCPU = 40 * sim.Nanosecond
	// versionRowCPU is the extra cost per unpurged row version traversed
	// by a range read (MVCC read view checks).
	versionRowCPU = 1 * sim.Microsecond
	// purgeInterval is how often the background purge runs.
	purgeInterval = sim.Second
	// purgeCapPerSec bounds how many row versions the purge thread clears
	// per second. Insert rates above it grow an unbounded history backlog
	// that range reads must traverse — the runaway that collapses Workload
	// RSW (50% inserts) while leaving Workload RS (6% inserts) healthy.
	purgeCapPerSec int64 = 5000
	// bufferPoolFraction of node RAM given to InnoDB.
	bufferPoolFraction = 0.8
	// leafCap encodes rows per 16K page (~94 for 75-byte rows with InnoDB
	// row overhead and a ~70% fill factor -> 2.5 GB of table for 10M rows;
	// the binlog doubles it to the ~5 GB/node of Fig 17).
	leafCap = 94
	// perThreadCPU is the per-operation overhead per client thread (see
	// Options.ClientThreads).
	perThreadCPU = 500 * sim.Nanosecond
)

// Options holds the deployment choices the harness varies: scale, client
// count and the variant vocabulary.
type Options struct {
	// ScaleComp converts scaled structure sizes back to paper-equivalent
	// row counts for the tail-scan cost (the harness passes 1/scale), so
	// scan costs are invariant under dataset scaling (0 = 1).
	ScaleComp float64
	// BinLog enables the binary log (paper default on; ablation off).
	BinLog bool
	// ClientThreads is the total number of YCSB threads. Every client
	// thread holds a JDBC connection to every server (§6), so each server
	// pays per-operation thread/connection management overhead that grows
	// with the whole cluster's client count — one reason MySQL's scaling
	// flattens near 8-12 nodes.
	ClientThreads int
}

func (o *Options) defaults() {
	if o.ScaleComp == 0 {
		o.ScaleComp = 1
	}
}

// connOverhead is the per-op server cost of managing all client connections.
func (o *Options) connOverhead() sim.Time {
	return sim.Time(o.ClientThreads) * perThreadCPU
}

// Store is the sharded MySQL deployment.
type Store struct {
	opts   Options
	clust  *cluster.Cluster
	ring   *hashring.Mod
	shards []*shard
	// down marks killed servers (fault injection). Client-side sharding
	// has no failover: a dead shard's keys are unavailable until restart.
	down      []bool
	downCount int
}

type shard struct {
	node     *cluster.Node
	db       *btree.Tree
	redo     *wal.Log
	binlog   *wal.Log
	binBytes int64
	// unpurged counts row versions created since the last purge pass.
	unpurged int64
	purgerUp bool
	// replayMark is the redo-log watermark of the last checkpoint
	// (restart); crash recovery replays the bytes appended since.
	replayMark int64
}

// binlogBytesPerRecord is the statement-based binary log cost of one
// insert (full SQL text plus event headers); it makes the binary log
// roughly double MySQL's disk footprint, as the paper reports (§5.7).
const binlogBytesPerRecord = 250

// New deploys one MySQL server per node.
func New(c *cluster.Cluster, opts Options) *Store {
	opts.defaults()
	s := &Store{opts: opts, clust: c, ring: hashring.NewMod(len(c.Nodes))}
	for _, n := range c.Nodes {
		pageSize := int64(16 << 10)
		poolBytes := int64(float64(n.Spec.RAMBytes) * bufferPoolFraction)
		s.shards = append(s.shards, &shard{
			node: n,
			db: btree.New(btree.Config{
				PageSize:    pageSize,
				BufferPages: int(poolBytes / pageSize),
				LeafCap:     leafCap,
				InternalCap: 512,
			}),
			redo:   wal.New(n, 5*sim.Millisecond),
			binlog: wal.New(n, 5*sim.Millisecond),
		})
	}
	s.down = make([]bool, len(c.Nodes))
	return s
}

// Name implements store.Store.
func (s *Store) Name() string { return "mysql" }

// SlabBytes implements store.Store: the retained footprint of every
// shard's B-tree slabs.
func (s *Store) SlabBytes() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.db.SlabBytes()
	}
	return total
}

func (s *Store) shardIndex(key string) int { return s.ring.Owner(key) }

func chargeIO(p *sim.Proc, n *cluster.Node, io btree.IOStats, pageSize int64) {
	for i := 0; i < io.Misses; i++ {
		n.DiskRead(p, pageSize, true)
	}
	for i := 0; i < io.DirtyWritebacks; i++ {
		n.DiskWrite(p, pageSize, true)
	}
}

// Read implements store.Store.
func (s *Store) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	si := s.shardIndex(key)
	if s.down[si] {
		return store.FieldsView{}, store.ErrUnavailable
	}
	sh := s.shards[si]
	var out store.FieldsView
	var ok bool
	base.Roundtrip(p, sh.node, base.ReqHeader, base.RecordWire, func() {
		sh.node.Compute(p, readCPU+s.opts.connOverhead())
		var io btree.IOStats
		out, ok, io = sh.db.Get(key)
		chargeIO(p, sh.node, io, 16<<10)
	})
	if !ok {
		return store.FieldsView{}, store.ErrNotFound
	}
	return out, nil
}

// ensurePurger runs the background MVCC purge loop for a shard. Its
// clearing rate is capped, so sustained insert rates above purgeCapPerSec
// grow the version backlog without bound.
func (s *Store) ensurePurger(e *sim.Engine, sh *shard) {
	if sh.purgerUp {
		return
	}
	sh.purgerUp = true
	e.Go("mysql-purge", func(p *sim.Proc) {
		for sh.unpurged > 0 {
			p.Sleep(purgeInterval)
			batch := int64(float64(purgeCapPerSec) * purgeInterval.Seconds())
			if batch > sh.unpurged {
				batch = sh.unpurged
			}
			sh.node.Compute(p, sim.Time(batch)*200*sim.Nanosecond)
			sh.unpurged -= batch
		}
		sh.purgerUp = false
	})
}

func (s *Store) write(p *sim.Proc, key string, f store.Fields) error {
	si := s.shardIndex(key)
	if s.down[si] {
		return store.ErrUnavailable
	}
	sh := s.shards[si]
	base.Roundtrip(p, sh.node, base.ReqHeader+base.RecordWire, base.AckWire, func() {
		sh.node.Compute(p, writeCPU+s.opts.connOverhead())
		sh.redo.Append(p, int64(store.RawRecordBytes), false)
		if s.opts.BinLog {
			sh.binlog.Append(p, binlogBytesPerRecord, false)
			sh.binBytes += binlogBytesPerRecord
		}
		io := sh.db.Put(key, f)
		chargeIO(p, sh.node, io, 16<<10)
		sh.unpurged++
		s.ensurePurger(p.Engine(), sh)
	})
	return nil
}

// Insert implements store.Store.
func (s *Store) Insert(p *sim.Proc, key string, f store.Fields) error {
	return s.write(p, key, f)
}

// Update implements store.Store: a read-modify-write UPDATE ... WHERE
// key = ?. Unlike Insert, the row is rewritten in place — the index descent
// pays page-read charges, only the leaf holding the row is dirtied, and no
// page is allocated — while the redo log and (statement-based) binary log
// still append, and the old row version joins the MVCC purge backlog as an
// undo record. Updating an absent key pays the full descent and returns
// store.ErrNotFound.
func (s *Store) Update(p *sim.Proc, key string, f store.Fields) error {
	si := s.shardIndex(key)
	if s.down[si] {
		return store.ErrUnavailable
	}
	sh := s.shards[si]
	var found bool
	base.Roundtrip(p, sh.node, base.ReqHeader+base.RecordWire, base.AckWire, func() {
		sh.node.Compute(p, updateCPU+s.opts.connOverhead())
		var io btree.IOStats
		found, io = sh.db.Update(key, f)
		chargeIO(p, sh.node, io, 16<<10)
		if !found {
			return
		}
		sh.redo.Append(p, int64(store.RawRecordBytes), false)
		if s.opts.BinLog {
			// Statement-based logging: an UPDATE statement costs about
			// what the INSERT that created the row did.
			sh.binlog.Append(p, binlogBytesPerRecord, false)
			sh.binBytes += binlogBytesPerRecord
		}
		sh.unpurged++ // the overwritten version joins the undo history
		s.ensurePurger(p.Engine(), sh)
	})
	if !found {
		return store.ErrNotFound
	}
	return nil
}

// Scan implements store.Store.
//
// Single-node deployments use the plain (unsharded) JDBC client: the range
// query honors the row limit and costs a short B-tree range read plus the
// traversal of any unpurged row versions. Sharded deployments (§5.4) issue
// the per-shard "key >= start" query sequentially to every shard and merge
// client-side; each shard materializes its table tail until the client
// abandons the cursor, which is why scan throughput collapses for two or
// more nodes (Figs 12-14). The JDBC result set is fully fetched (and,
// sharded, merged) before the client sees a row.
func (s *Store) Scan(p *sim.Proc, start string, count int) ([]store.Record, error) {
	// The client-side merge needs every shard's answer; any dead shard
	// fails the whole scan.
	if s.downCount > 0 {
		return nil, store.ErrUnavailable
	}
	runs := make([][]store.Record, len(s.shards))
	for i, sh := range s.shards {
		base.Roundtrip(p, sh.node, base.ReqHeader, int64(count)*base.RecordWire, func() {
			runs[i] = s.scanShard(p, sh, start, count, len(s.shards) > 1)
		})
	}
	return store.MergeRuns(runs, count), nil
}

// versionPenalty is the MVCC read-view cost of traversing unpurged history.
func (s *Store) versionPenalty(sh *shard) sim.Time {
	return sim.Time(float64(sh.unpurged) * float64(versionRowCPU))
}

// scanShard is one server's range read of up to count rows. With tail, the
// server pays for the sharded client's table-tail walk instead of the
// returned rows, rescaled to paper-equivalent rows so the cost does not
// depend on the simulation's dataset scale.
func (s *Store) scanShard(p *sim.Proc, sh *shard, start string, count int, tail bool) []store.Record {
	sh.node.Compute(p, readCPU)
	rows, io := sh.db.Scan(start, count)
	chargeIO(p, sh.node, io, 16<<10)
	rowCPU := sim.Time(len(rows)) * scanRowCPU
	if tail {
		visited, tailIO := sh.db.ScanAllFrom(start)
		chargeIO(p, sh.node, btree.IOStats{Misses: tailIO.Misses / 8}, 16<<10)
		equivRows := float64(visited) * s.opts.ScaleComp
		rowCPU = sim.Time(equivRows * float64(tailRowCPU))
	}
	sh.node.Compute(p, rowCPU+s.versionPenalty(sh))
	return rows
}

// Nodes implements store.Store: one server per node.
func (s *Store) Nodes() int { return len(s.shards) }

// LoadNodes implements store.Store: the shard holding key.
func (s *Store) LoadNodes(dst []int, key string) []int { return append(dst, s.shardIndex(key)) }

// LoadNode implements store.Store.
func (s *Store) LoadNode(i int, key string, f store.Fields) {
	sh := s.shards[i]
	sh.db.Load(key, f)
	if s.opts.BinLog {
		sh.binBytes += binlogBytesPerRecord
		sh.node.AddDiskUsage(binlogBytesPerRecord)
	}
}

// SealNode implements store.Store: the shard's deferred bulk build.
func (s *Store) SealNode(i int) { s.shards[i].db.Seal() }

// DiskUsage implements store.Store: table space plus binary log.
func (s *Store) DiskUsage() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.db.DiskBytes() + sh.binBytes
	}
	return total
}

// InnoDB crash-recovery cost model: redo replay since the last checkpoint,
// bounded by the log file size, at ~100 MB/s of CPU.
const (
	replayCPUPerByte     = 10 * sim.Nanosecond
	recoverySegmentBytes = 64 << 20
)

// KillNode implements fault.Target: mysqld dies; the buffered redo/binlog
// tails are lost and the shard's keys error until restart.
func (s *Store) KillNode(i int) {
	if s.down[i] {
		return
	}
	s.down[i] = true
	s.downCount++
	s.shards[i].redo.Close()
	s.shards[i].binlog.Close()
}

// RestartNode implements fault.Target: InnoDB replays the redo log written
// since the last checkpoint before the server accepts connections.
func (s *Store) RestartNode(p *sim.Proc, i int) {
	if !s.down[i] {
		return
	}
	sh := s.shards[i]
	replay := sh.redo.DurableBytes() - sh.replayMark
	if replay > recoverySegmentBytes {
		replay = recoverySegmentBytes
	}
	if replay > 0 {
		sh.node.DiskRead(p, replay, false)
		sh.node.Compute(p, sim.Time(replay)*replayCPUPerByte)
	}
	sh.replayMark = sh.redo.DurableBytes()
	sh.redo.Reopen()
	sh.binlog.Reopen()
	s.down[i] = false
	s.downCount--
}

var _ store.Store = (*Store)(nil)
