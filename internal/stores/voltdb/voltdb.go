// Package voltdb models VoltDB 2.1 as benchmarked in the paper (§4.5): a
// shared-nothing, in-memory, partitioned relational engine with six
// single-threaded execution sites per host. Reads, writes and inserts are
// single-partition stored procedures; scans are multi-partition
// transactions.
//
// The paper's central VoltDB observation — excellent single-node throughput
// but *negative* scaling beyond one node with the synchronous YCSB client
// (§5.1, §6, footnote on Hugg's asynchronous benchmark) — is reproduced via
// the global transaction ordering path: with more than one host, every
// transaction passes through cluster-wide initiation whose per-transaction
// cost grows with the number of hosts, and a synchronous client cannot
// amortize that coordination across batched transactions the way VoltDB's
// asynchronous API does. Multi-partition transactions additionally fan out
// to one site on every host and block each of them.
package voltdb

import (
	"repro/internal/cluster"
	"repro/internal/hashring"
	"repro/internal/memtable"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/stores/base"
)

const (
	execCPU = 110 * sim.Microsecond // stored procedure execution cost on a site
	// orderPerHost is the per-transaction global-ordering cost per host in
	// the cluster (zero cost on single-host deployments).
	orderPerHost = 25 * sim.Microsecond
	// mpFanoutCPU is the per-site cost of a multi-partition transaction.
	mpFanoutCPU = 180 * sim.Microsecond
	scanRowCPU  = 4 * sim.Microsecond
)

// Options holds the deployment choices the harness varies: the variant
// vocabulary.
type Options struct {
	SitesPerHost int // single-threaded partitions per host (paper: 6; 0 = 6)
	// Async models VoltDB's asynchronous client (ablation): transaction
	// ordering is pipelined, so the ordering cost is not serialized through
	// a single global sequencer.
	Async bool
}

func (o *Options) defaults() {
	if o.SitesPerHost == 0 {
		o.SitesPerHost = 6
	}
}

// Store is a VoltDB deployment.
type Store struct {
	opts  Options
	clust *cluster.Cluster
	ring  *hashring.Mod // partition router over hosts*sites partitions
	hosts []*host
	// sequencer is the cluster-wide transaction initiation/ordering path.
	sequencer *sim.Resource
	// down marks killed hosts (fault injection). The paper ran without
	// k-safety, so a dead host's partitions are unavailable until restart.
	down      []bool
	downCount int
	// runBufs recycles the buffers Scan gathers its partitions' rows in.
	runBufs base.RunBufs
}

// host is one VoltDB server process.
type host struct {
	machine *cluster.Node
	sites   []*site
}

// site is a single-threaded partition executor with its partition's data.
type site struct {
	exec *sim.Resource // capacity 1: the site thread
	data *memtable.Memtable
}

// New deploys VoltDB across the cluster.
func New(c *cluster.Cluster, opts Options) *Store {
	opts.defaults()
	s := &Store{opts: opts, clust: c}
	s.ring = hashring.NewMod(len(c.Nodes) * opts.SitesPerHost)
	s.sequencer = sim.NewResource(c.Eng, "voltdb-sequencer", 1)
	for _, m := range c.Nodes {
		h := &host{machine: m}
		for j := 0; j < opts.SitesPerHost; j++ {
			h.sites = append(h.sites, &site{
				exec: sim.NewResource(c.Eng, "voltdb-site", 1),
				data: memtable.New(),
			})
		}
		s.hosts = append(s.hosts, h)
	}
	s.down = make([]bool, len(c.Nodes))
	return s
}

// Name implements store.Store.
func (s *Store) Name() string { return "voltdb" }

// SlabBytes implements store.Store: the retained footprint of every
// site's memtable arenas.
func (s *Store) SlabBytes() int64 {
	var total int64
	for _, h := range s.hosts {
		for _, st := range h.sites {
			total += st.data.SlabBytes()
		}
	}
	return total
}

// order pays the global transaction initiation cost. On one host this is
// local and free; on multiple hosts each transaction costs orderPerHost x
// hosts, serialized through the cluster-wide sequencer for synchronous
// clients.
func (s *Store) order(p *sim.Proc, multiPartition bool) {
	n := len(s.hosts)
	if n <= 1 {
		return
	}
	cost := sim.Time(n) * orderPerHost
	if multiPartition {
		cost *= 3
	}
	if s.opts.Async {
		// Pipelined initiation: ordering overlaps with execution.
		p.Sleep(cost / 4)
		return
	}
	p.Use(s.sequencer, cost)
}

// singlePartition runs fn on the owning site as a single-partition txn.
// With a host down the transaction fails if either the owner or the
// arrival host is dead: no k-safety means the partition has no replica,
// and a dead arrival host drops the client's connection.
func (s *Store) singlePartition(p *sim.Proc, key string, reqBytes, respBytes int64, fn func(*host, *site)) error {
	part := s.ring.Owner(key)
	hi := part / s.opts.SitesPerHost
	h := s.hosts[hi]
	st := h.sites[part%s.opts.SitesPerHost]
	// The synchronous client connects to all hosts; the arrival host
	// forwards to the owner when necessary (round-trip within the cluster).
	ai := p.Rand().Intn(len(s.hosts))
	if s.downCount > 0 && (s.down[hi] || s.down[ai]) {
		return store.ErrUnavailable
	}
	arrival := s.hosts[ai]
	serve := func() {
		s.order(p, false)
		st.exec.Acquire(p)
		h.machine.Compute(p, execCPU)
		fn(h, st)
		st.exec.Release()
	}
	base.Roundtrip(p, arrival.machine, reqBytes, respBytes, func() {
		if arrival == h {
			serve()
			return
		}
		arrival.machine.RPC(p, h.machine, reqBytes, respBytes, serve)
	})
	return nil
}

// Read implements store.Store.
func (s *Store) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	var out store.FieldsView
	var ok bool
	err := s.singlePartition(p, key, base.ReqHeader, base.RecordWire, func(h *host, st *site) {
		out, ok = st.data.Get(key)
	})
	if err != nil {
		return store.FieldsView{}, err
	}
	if !ok {
		return store.FieldsView{}, store.ErrNotFound
	}
	return out, nil
}

func (s *Store) write(p *sim.Proc, key string, f store.Fields) error {
	return s.singlePartition(p, key, base.ReqHeader+base.RecordWire, base.AckWire, func(h *host, st *site) {
		st.data.Put(key, f)
	})
}

// Insert implements store.Store.
func (s *Store) Insert(p *sim.Proc, key string, f store.Fields) error {
	return s.write(p, key, f)
}

// Update implements store.Store.
func (s *Store) Update(p *sim.Proc, key string, f store.Fields) error {
	return s.write(p, key, f)
}

// Scan implements store.Store: a multi-partition transaction that blocks
// one site on every host while the fragment runs. The transaction commits
// — every fragment charged, each site's key-sorted rows gathered — and the
// client merges them before the rows are returned.
func (s *Store) Scan(p *sim.Proc, start string, count int) ([]store.Record, error) {
	ai := p.Rand().Intn(len(s.hosts))
	// A multi-partition transaction needs a fragment from every host.
	if s.downCount > 0 {
		return nil, store.ErrUnavailable
	}
	arrival := s.hosts[ai]
	runs := make([][]store.Record, 0, len(s.hosts)*s.opts.SitesPerHost)
	need := 0
	for _, h := range s.hosts {
		for _, st := range h.sites {
			need += min(count, st.data.Len())
		}
	}
	buf := s.runBufs.Take(need)
	base.Roundtrip(p, arrival.machine, base.ReqHeader, int64(count)*base.RecordWire, func() {
		s.order(p, true)
		for _, h := range s.hosts {
			frag := func() {
				for _, st := range h.sites {
					st.exec.Acquire(p)
					h.machine.Compute(p, mpFanoutCPU/sim.Time(s.opts.SitesPerHost))
					// ScanAppend copies the site's rows out while the site
					// is held and keeps no memtable iterator past it, so a
					// Put that splits a leaf cannot invalidate a cursor
					// here. The run is sliced out of buf with its capacity
					// capped, so the next site's rows never overwrite it
					// (if buf must grow, earlier runs keep the old array).
					off := len(buf)
					buf = st.data.ScanAppend(buf, start, count)
					rows := buf[off:len(buf):len(buf)]
					h.machine.Compute(p, sim.Time(len(rows))*scanRowCPU)
					runs = append(runs, rows)
					st.exec.Release()
				}
			}
			if h == arrival {
				frag()
				continue
			}
			arrival.machine.RPC(p, h.machine, base.ReqHeader, int64(count)*base.RecordWire, frag)
		}
	})
	recs := store.MergeRuns(runs, count)
	s.runBufs.Give(buf)
	return recs, nil
}

// Nodes implements store.Store. Its engines are the partition sites
// (SitesPerHost per host), which share no state, so a loader routes a key
// once, straight to its site.
func (s *Store) Nodes() int { return len(s.hosts) * s.opts.SitesPerHost }

// LoadNodes implements store.Store: the partition owning key.
func (s *Store) LoadNodes(dst []int, key string) []int { return append(dst, s.ring.Owner(key)) }

// LoadNode implements store.Store: partition part's site.
func (s *Store) LoadNode(part int, key string, f store.Fields) {
	s.hosts[part/s.opts.SitesPerHost].sites[part%s.opts.SitesPerHost].data.Put(key, f)
}

// SealNode implements store.Store; the memtable defers nothing.
func (s *Store) SealNode(int) {}

// DiskUsage implements store.Store: VoltDB keeps data in memory (excluded
// from the paper's disk experiment).
func (s *Store) DiskUsage() int64 { return 0 }

// snapshotCPUPerByte is the CPU cost of rebuilding partition tables from a
// command-log/snapshot image on rejoin (~100 MB/s).
const snapshotCPUPerByte = 10 * sim.Nanosecond

// KillNode implements fault.Target: the host process dies; without
// k-safety its partitions are gone until restart.
func (s *Store) KillNode(i int) {
	if s.down[i] {
		return
	}
	s.down[i] = true
	s.downCount++
}

// RestartNode implements fault.Target: the rejoining host reloads its
// partitions from the snapshot before serving again.
func (s *Store) RestartNode(p *sim.Proc, i int) {
	if !s.down[i] {
		return
	}
	h := s.hosts[i]
	var bytes int64
	for _, st := range h.sites {
		bytes += st.data.Bytes()
	}
	if bytes > 0 {
		h.machine.DiskRead(p, bytes, false)
		h.machine.Compute(p, sim.Time(bytes)*snapshotCPUPerByte)
	}
	s.down[i] = false
	s.downCount--
}

var _ store.Store = (*Store)(nil)
