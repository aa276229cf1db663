// Package voldemort models Project Voldemort as benchmarked in the paper:
// a consistent-hash DHT with two partitions per node (§4.3), an embedded
// BerkeleyDB B-tree per node for persistence, and a smart client that routes
// directly to the owning node.
//
// The paper's §6 notes that the Voldemort client's thread/connection pool
// had to be tuned carefully — the default of 10 threads and 50 connections
// was both the throughput limiter and the reason Voldemort's reported
// latencies are so low (≈230–260 µs) while per-node throughput sits near
// 12K ops/s: effective server-side concurrency per node was tiny, so
// requests hardly queued. The model reproduces this with a per-node
// client-pool semaphore; time spent waiting for a pool slot is charged to
// the operation only after the slot is held (matching how the YCSB client
// measured inside the store client).
//
// The YCSB Voldemort binding does not support scans (§5.4), so Scan returns
// store.ErrScansUnsupported and the harness omits Voldemort from the
// scan workloads, as the paper did.
package voldemort

import (
	"repro/internal/btree"
	"repro/internal/cluster"
	"repro/internal/hashring"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/stores/base"
	"repro/internal/wal"
)

const (
	// clientPoolPerNode is the number of in-flight requests the client
	// library allows per server node (the tuned-down pool of §6).
	clientPoolPerNode = 3
	// readCPU/writeCPU are server-side service times (BDB get/put through
	// the JVM and socket stack).
	readCPU  = 110 * sim.Microsecond
	writeCPU = 120 * sim.Microsecond
	// updateCPU is the server-side cost of replacing an existing record: a
	// versioned put that locates the row (the vector-clock check BDB's
	// read-modify-write performs) and rewrites the leaf in place, so it
	// lands between readCPU and readCPU+writeCPU.
	updateCPU = 160 * sim.Microsecond
	// partitionsPerNode is the Voldemort partition count per node (§4.3).
	partitionsPerNode = 2
	// bdbCacheFraction is the share of node RAM given to the BerkeleyDB
	// cache. The model gives BDB 75%; the paper's setup gave BDB 25% and
	// Voldemort itself 75%, so adopting the paper's split would move
	// every Voldemort number (a modeled-number change, not a retune).
	bdbCacheFraction = 0.75
	// leafCap encodes BDB's on-disk record density per 4K page: 75-byte
	// records with BDB per-record overhead and a ~70% fill factor land
	// ~11 records/page -> ~5.5 GB for 10M records, matching Fig 17.
	leafCap = 11
)

// Store is the Voldemort deployment.
type Store struct {
	clust *cluster.Cluster
	ring  *hashring.TokenRing
	nodes []*server
	// down marks killed servers (fault injection). The paper ran
	// unreplicated (required-reads = required-writes = 1), so a dead
	// node's partitions are unavailable until restart.
	down      []bool
	downCount int
}

type server struct {
	node *cluster.Node
	pool *sim.Resource // client-side per-node in-flight limit
	db   *btree.Tree
	log  *wal.Log
	// replayMark is the durable-log watermark of the last checkpoint
	// (restart); recovery replays the bytes appended since.
	replayMark int64
}

// New deploys Voldemort across the cluster.
func New(c *cluster.Cluster) *Store {
	s := &Store{clust: c}
	// partitions spread evenly: equivalent to an optimal token ring with
	// partitionsPerNode tokens per node; ownership by node suffices here.
	s.ring = hashring.NewTokenRingOptimal(len(c.Nodes) * partitionsPerNode)
	for _, n := range c.Nodes {
		pageSize := int64(4 << 10)
		cacheBytes := int64(float64(n.Spec.RAMBytes) * bdbCacheFraction)
		s.nodes = append(s.nodes, &server{
			node: n,
			pool: sim.NewResource(c.Eng, "voldemort-pool", clientPoolPerNode),
			db: btree.New(btree.Config{
				PageSize:    pageSize,
				BufferPages: int(cacheBytes / pageSize),
				LeafCap:     leafCap,
				InternalCap: 128,
			}),
			log: wal.New(n, 15*sim.Millisecond),
		})
	}
	s.down = make([]bool, len(c.Nodes))
	return s
}

// Name implements store.Store.
func (s *Store) Name() string { return "voldemort" }

// SlabBytes implements store.Store: the retained footprint of every
// server's B-tree slabs.
func (s *Store) SlabBytes() int64 {
	var total int64
	for _, sv := range s.nodes {
		total += sv.db.SlabBytes()
	}
	return total
}

func (s *Store) serverIndex(key string) int {
	return s.ring.Owner(key) % len(s.nodes)
}

// chargeIO converts B-tree page statistics into disk time on the server.
func chargeIO(p *sim.Proc, n *cluster.Node, io btree.IOStats) {
	for i := 0; i < io.Misses; i++ {
		n.DiskRead(p, 4<<10, true)
	}
	for i := 0; i < io.DirtyWritebacks; i++ {
		n.DiskWrite(p, 4<<10, true)
	}
}

// Read implements store.Store.
func (s *Store) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	si := s.serverIndex(key)
	if s.down[si] {
		return store.FieldsView{}, store.ErrUnavailable
	}
	sv := s.nodes[si]
	sv.pool.Acquire(p)
	var out store.FieldsView
	var ok bool
	base.Roundtrip(p, sv.node, base.ReqHeader, base.RecordWire, func() {
		sv.node.Compute(p, readCPU)
		var io btree.IOStats
		out, ok, io = sv.db.Get(key)
		chargeIO(p, sv.node, io)
	})
	sv.pool.Release()
	if !ok {
		return store.FieldsView{}, store.ErrNotFound
	}
	return out, nil
}

func (s *Store) write(p *sim.Proc, key string, f store.Fields) error {
	si := s.serverIndex(key)
	if s.down[si] {
		return store.ErrUnavailable
	}
	sv := s.nodes[si]
	sv.pool.Acquire(p)
	base.Roundtrip(p, sv.node, base.ReqHeader+base.RecordWire, base.AckWire, func() {
		sv.node.Compute(p, writeCPU)
		sv.log.Append(p, int64(store.RawRecordBytes), false)
		io := sv.db.Put(key, f)
		chargeIO(p, sv.node, io)
	})
	sv.pool.Release()
	return nil
}

// Insert implements store.Store.
func (s *Store) Insert(p *sim.Proc, key string, f store.Fields) error {
	return s.write(p, key, f)
}

// Update implements store.Store: a read-modify-write versioned put. The
// BDB descent pays page-read charges, only the leaf holding the record is
// dirtied (no page allocated or split), and the write-ahead log appends
// the replacing record. Updating an absent key pays the full descent and
// returns store.ErrNotFound.
func (s *Store) Update(p *sim.Proc, key string, f store.Fields) error {
	si := s.serverIndex(key)
	if s.down[si] {
		return store.ErrUnavailable
	}
	sv := s.nodes[si]
	sv.pool.Acquire(p)
	var found bool
	base.Roundtrip(p, sv.node, base.ReqHeader+base.RecordWire, base.AckWire, func() {
		sv.node.Compute(p, updateCPU)
		var io btree.IOStats
		found, io = sv.db.Update(key, f)
		chargeIO(p, sv.node, io)
		if found {
			sv.log.Append(p, int64(store.RawRecordBytes), false)
		}
	})
	sv.pool.Release()
	if !found {
		return store.ErrNotFound
	}
	return nil
}

// Scan implements store.Store: unsupported, as in the paper's YCSB client.
func (s *Store) Scan(p *sim.Proc, start string, count int) ([]store.Record, error) {
	return nil, store.ErrScansUnsupported
}

// Nodes implements store.Store: one server per node.
func (s *Store) Nodes() int { return len(s.nodes) }

// LoadNodes implements store.Store: the server holding key.
func (s *Store) LoadNodes(dst []int, key string) []int { return append(dst, s.serverIndex(key)) }

// LoadNode implements store.Store.
func (s *Store) LoadNode(i int, key string, f store.Fields) { s.nodes[i].db.Load(key, f) }

// SealNode implements store.Store: the server's deferred bulk build.
func (s *Store) SealNode(i int) { s.nodes[i].db.Seal() }

// DiskUsage implements store.Store: the BDB files plus unrecycled log.
func (s *Store) DiskUsage() int64 {
	var total int64
	for _, sv := range s.nodes {
		total += sv.db.DiskBytes()
	}
	return total
}

// Recovery replay cost model: BDB replays the log tail written since the
// last checkpoint, bounded by the segment size, at ~100 MB/s of CPU.
const (
	replayCPUPerByte     = 10 * sim.Nanosecond
	recoverySegmentBytes = 64 << 20
)

// KillNode implements fault.Target: the server process dies; the buffered
// log tail is lost and its partitions error until restart.
func (s *Store) KillNode(i int) {
	if s.down[i] {
		return
	}
	s.down[i] = true
	s.downCount++
	s.nodes[i].log.Close()
}

// RestartNode implements fault.Target: BDB log replay since the last
// checkpoint is paid in virtual time before the node serves again.
func (s *Store) RestartNode(p *sim.Proc, i int) {
	if !s.down[i] {
		return
	}
	sv := s.nodes[i]
	replay := sv.log.DurableBytes() - sv.replayMark
	if replay > recoverySegmentBytes {
		replay = recoverySegmentBytes
	}
	if replay > 0 {
		sv.node.DiskRead(p, replay, false)
		sv.node.Compute(p, sim.Time(replay)*replayCPUPerByte)
	}
	sv.replayMark = sv.log.DurableBytes()
	sv.log.Reopen()
	s.down[i] = false
	s.downCount--
}

var _ store.Store = (*Store)(nil)
