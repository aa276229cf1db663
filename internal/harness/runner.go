package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/ycsb"
)

// Config controls experiment fidelity.
type Config struct {
	// Scale multiplies record counts and node RAM/disk (default 0.01).
	Scale float64
	// RecordsPerNode before scaling (paper: 10M on Cluster M).
	RecordsPerNode int64
	// ClusterDRecords before scaling (paper: 150M total).
	ClusterDRecords int64
	// Warmup and Measure bound each run in virtual time.
	Warmup  sim.Time
	Measure sim.Time
	// Seed makes every experiment deterministic.
	Seed int64
	// Repetitions averages each cell over this many independent seeds
	// (the paper reports the average of at least 3 executions).
	Repetitions int
	// NodeCounts is the cluster-size sweep (paper: 1..12).
	NodeCounts []int
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.01
	}
	if c.RecordsPerNode == 0 {
		c.RecordsPerNode = 10_000_000
	}
	if c.ClusterDRecords == 0 {
		c.ClusterDRecords = 150_000_000
	}
	if c.Warmup == 0 {
		c.Warmup = 500 * sim.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 2 * sim.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.NodeCounts) == 0 {
		c.NodeCounts = []int{1, 2, 4, 8, 12}
	}
	if c.Repetitions == 0 {
		c.Repetitions = 1
	}
	return c
}

// Fingerprint is the config's identity for result caching and the farm
// handshake: every field that shapes a cell's numbers, at full precision.
// NodeCounts is deliberately excluded — it selects which cells a sweep
// plans, not what any one cell measures — so narrowing a sweep still hits
// the cache entries the wide sweep wrote.
func (c Config) Fingerprint() string {
	c = c.Defaults()
	return fmt.Sprintf("scale=%g,rpn=%d,drec=%d,warm=%d,meas=%d,seed=%d,reps=%d",
		c.Scale, c.RecordsPerNode, c.ClusterDRecords, int64(c.Warmup), int64(c.Measure), c.Seed, c.Repetitions)
}

// Quick returns a low-fidelity config for tests.
func Quick() Config {
	return Config{
		Scale:          0.001,
		Warmup:         200 * sim.Millisecond,
		Measure:        600 * sim.Millisecond,
		NodeCounts:     []int{1, 2, 4},
		RecordsPerNode: 10_000_000,
	}.Defaults()
}

// Cell identifies one experiment data point: a full declarative scenario
// spec. Paper figures use the named-preset subset (System, Nodes, Workload,
// ClusterD); ablations add Variants; user scenarios may also inline a
// custom workload mix (Mix) or override the hardware (Spec). Cell is a
// comparable value type — every field is scalar — so results can be
// compared across runners and cells keyed without allocation tricks.
type Cell struct {
	System System
	Nodes  int
	// Workload names a Table 1 preset. Ignored when Mix is set.
	Workload string
	// Mix, when its Name is non-empty, is an inline workload spec
	// (arbitrary read/scan/insert/update mix, scan length, key
	// distribution, record size) used instead of the Workload preset
	// lookup. Preset-identical mixes should use Workload so the cell
	// shares its cache entry and seed with the figures.
	Mix      ycsb.Workload
	ClusterD bool
	// Spec, when its Name is non-empty, overrides the cell's hardware
	// (cluster.ClusterM/ClusterD otherwise); Spec.Nodes is ignored in
	// favor of Cell.Nodes. Custom-spec cells load RecordsPerNode records
	// per node, like Cluster M.
	Spec cluster.Spec
	// Variants is an ordered comma-separated list of key=value deployment
	// options (see the variant vocabulary in systems.go), e.g.
	// "replication=3,consistency=all". Empty means the paper's defaults.
	Variants string
	// TargetFraction throttles to a share of the cell's max throughput
	// (0 = unthrottled); used by the bounded-throughput experiment. YCSB
	// workload cells only: query and LoadOnly cells reject it.
	TargetFraction float64
	// LoadOnly deploys and loads the cell without running a workload
	// (the disk-usage experiment, Fig 17). Workload/Mix then only select
	// the record size (default 75-byte records when unset); a LoadOnly
	// cell cannot also set TargetFraction, Faults or Queries.
	LoadOnly bool
	// RecordsPerNode overrides Config.RecordsPerNode for this cell
	// (pre-scale records per node, also applied on Cluster D in place of
	// the paper's fixed total); 0 keeps the config's dataset size. Set by
	// scenario-level overrides.
	RecordsPerNode int64
	// Repetitions overrides Config.Repetitions for this cell (independent
	// seeds averaged per result); 0 keeps the config's. Ignored for
	// LoadOnly cells, whose load is deterministic per seed.
	Repetitions int
	// Faults is a canonical fault schedule (fault.Schedule.String(), e.g.
	// "kill-node@1[0.3:0.6]") injected into the run, with windows as
	// fractions of warmup+measure. Empty means no faults; faulted cells
	// also collect windowed quantiles/availability.
	Faults string
	// Queries, when set, makes this an analytic query cell: the canonical
	// encoding of a query mix (query.Mix.String(), round-tripped by
	// query.ParseMix) run by dashboard clients against the time-ordered APM
	// measurement grid instead of a YCSB workload. Workload/Mix are then
	// ignored, and Faults and TargetFraction are rejected. Carrying the
	// canonical string — not the spec structs — keeps Cell a comparable
	// value type and makes the string itself the cache and wire identity.
	Queries string
}

// workload resolves the cell's operation mix: the inline Mix when set,
// otherwise the named Table 1 preset.
func (c Cell) workload() (ycsb.Workload, error) {
	if c.Mix.Name != "" {
		if err := c.Mix.Validate(); err != nil {
			return ycsb.Workload{}, err
		}
		return c.Mix, nil
	}
	return ycsb.WorkloadByName(c.Workload)
}

// workloadName is the mix's display name.
func (c Cell) workloadName() string {
	if c.Mix.Name != "" {
		return c.Mix.Name
	}
	return c.Workload
}

// workloadKey is the workload's cache-key fragment. Presets key by name
// (so pre-scenario cell keys — and with them every figure seed — are
// unchanged); inline mixes key by every parameter at full precision (%g),
// because a rounded key would alias two different experiments into one
// cache slot and one seed (the PR-2 TargetFraction lesson).
func (c Cell) workloadKey() string {
	if c.Mix.Name == "" {
		return c.Workload
	}
	m := c.Mix
	return fmt.Sprintf("%s(r=%g,s=%g,i=%g,u=%g,len=%d,dist=%d,fb=%d)",
		m.Name, m.ReadProp, m.ScanProp, m.InsertProp, m.UpdateProp, m.ScanLength, int(m.Chooser), m.FieldBytes)
}

// loadFieldSize is the record field size a LoadOnly cell loads: the
// workload's when one is set (only the record shape matters for a load),
// else the paper default. Unresolvable workloads fall back to the default;
// the error surfaces when the cell runs.
func (c Cell) loadFieldSize() int {
	if c.Workload == "" && c.Mix.Name == "" {
		return store.FieldBytes
	}
	wl, err := c.workload()
	if err != nil {
		return store.FieldBytes
	}
	return wl.FieldSize()
}

// specKey is the hardware override's cache-key fragment.
func specKey(s cluster.Spec) string {
	return fmt.Sprintf("%s(cores=%d,ram=%d,disks=%d,seek=%d,dmbps=%g,dbytes=%d,netlat=%d,netmbps=%g)",
		s.Name, s.Node.Cores, s.Node.RAMBytes, s.Node.Disks, int64(s.Node.DiskSeek),
		s.Node.DiskMBps, s.Node.DiskBytes, int64(s.Net.BaseLatency), s.Net.MBps)
}

// base returns the unthrottled cell a TargetFraction cell is normalized
// against, and whether c has one.
func (c Cell) base() (Cell, bool) {
	if c.TargetFraction <= 0 {
		return Cell{}, false
	}
	b := c
	b.TargetFraction = 0
	return b, true
}

// CellResult is one measured data point.
type CellResult struct {
	Cell       Cell
	Throughput float64
	ReadLat    sim.Time
	WriteLat   sim.Time // insert latency (APM writes are inserts)
	ScanLat    sim.Time
	UpdateLat  sim.Time
	Ops        int64
	Errors     int64
	Timeouts   int64
	// DiskBytesPaperScale is store disk usage rescaled to paper size.
	DiskBytesPaperScale float64
	// Windows holds the per-window recovery curve (nil unless the cell has
	// faults); repetitions merge into one set of windows.
	Windows *stats.WindowedLatency
}

// CellExecutor measures one cell the runner could not serve from any
// cache. The default (nil) executor measures in process; the farm
// coordinator substitutes one that leases the cell to a remote worker.
// Either way the result must be the deterministic function of
// (Config, cell) the seeding contract promises — the runner dispatches
// cached, remote and local execution through the same singleflight path
// and treats the answers as interchangeable.
type CellExecutor interface {
	ExecuteCell(c Cell) (CellResult, error)
}

// ResultCache is a persistent store of cell results, keyed by the full
// experiment identity (Config fingerprint + cell key; implementations add
// the binary's model version). A Get hit is returned to figures without
// re-measuring anything; implementations must verify integrity and version
// and report misses for anything they cannot prove fresh — a stale or
// corrupt entry must be recomputed, never trusted. Both methods must be
// safe for concurrent use.
type ResultCache interface {
	Get(key string) (CellResult, bool)
	Put(key string, res CellResult)
}

// Runner executes and caches experiment cells so figures sharing the same
// runs (e.g. Fig 3/4/5) measure each cell once.
//
// Determinism contract: a cell's engine seed is a stable hash of
// (Cfg.Seed, cell identity, repetition), never of execution history, so a
// cell's result is bit-identical whether it runs first, last, shuffled or
// on a concurrent worker. Run and RunAll are safe for concurrent use;
// concurrent requests for the same cell share one execution.
type Runner struct {
	Cfg Config
	// Workers bounds concurrent cell executions in RunAll; 0 means
	// GOMAXPROCS. Note each in-flight cell holds a full simulated cluster
	// (engine, stores, loaded records), so at paper scale workers multiply
	// peak memory as well as CPU.
	Workers int
	// Progress, when set, receives one line per executed cell. Calls are
	// serialized; RunAll delivers lines in plan order regardless of which
	// worker finishes first.
	Progress func(string)
	// Executor, when set, measures the cells this runner could not serve
	// from any cache (the farm coordinator sets one that leases cells to
	// remote workers); nil measures in process. Cache, when set, is a
	// persistent result cache consulted before executing and filled after,
	// so a re-run of the same experiment with the same model version
	// executes zero cells. Both sit inside the singleflight path: cached,
	// remote and local results flow through the same slot and the in-memory
	// cell cache above them.
	Executor CellExecutor
	Cache    ResultCache
	// MemStats, when set, receives one diagnostic line per execution (each
	// repetition of a measured cell, and each Explain) right after its load
	// phase: the store's retained slab bytes (keys, field payloads, index
	// arenas) and the process heap in use, then, after the run, a scanstats
	// line when the run's scans touched an LSM store. Lines are
	// host-side diagnostics only — they never touch the simulation — but
	// heap numbers vary with GC timing and -parallel width, so the
	// determinism gate runs without them.
	MemStats func(string)

	mu        sync.Mutex
	cache     map[string]CellResult
	inflight  map[string]*inflightCell
	executed  int64 // cells measured rather than served from any cache
	cacheHits int64 // cells served from the persistent Cache

	progressMu sync.Mutex
}

// inflightCell is the singleflight slot for a cell being measured: late
// arrivals block on done and share the result.
type inflightCell struct {
	done chan struct{}
	res  CellResult
	err  error
}

// NewRunner creates a runner with the given config.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		Cfg:      cfg.Defaults(),
		cache:    map[string]CellResult{},
		inflight: map[string]*inflightCell{},
	}
}

func (r *Runner) key(c Cell) string {
	var k string
	if c.LoadOnly {
		// A load is fully determined by system, nodes, cluster, record
		// size, and deployment variants — not by the operation mix — so
		// the key deliberately omits the workload identity beyond its
		// field size. A load-only scenario cell naming preset "R" (or any
		// default-sized mix) therefore shares its cache entry and seed
		// with the corresponding Fig 17 cell.
		k = fmt.Sprintf("loadonly/%s/%d", c.System, c.Nodes)
		if fb := c.loadFieldSize(); fb != store.FieldBytes {
			k += fmt.Sprintf("/fb=%d", fb)
		}
		if c.ClusterD {
			k += "/d=true"
		}
	} else {
		// TargetFraction must print at full precision: rounding (e.g. %.2f)
		// would collide a small fraction's key with its unthrottled base's,
		// and resolving the base from inside the cell's own measurement would
		// then wait forever on the cell's own singleflight slot.
		k = fmt.Sprintf("%s/%d/%s/d=%v/f=%g", c.System, c.Nodes, c.workloadKey(), c.ClusterD, c.TargetFraction)
	}
	// The scenario extensions append only when set, so every pre-scenario
	// cell keeps its exact historical key — and therefore its seed and its
	// figure numbers.
	if c.Variants != "" {
		k += "/v=" + c.Variants
	}
	if c.Spec.Name != "" {
		k += "/hw=" + specKey(c.Spec)
	}
	if c.RecordsPerNode > 0 {
		k += fmt.Sprintf("/rpn=%d", c.RecordsPerNode)
	}
	// Repetition count changes a workload cell's averaged result, so it is
	// part of the identity; a load's outcome doesn't depend on it.
	if c.Repetitions > 0 && !c.LoadOnly {
		k += fmt.Sprintf("/reps=%d", c.Repetitions)
	}
	if c.Faults != "" {
		k += "/flt=" + c.Faults
	}
	if c.Queries != "" {
		k += "/q=" + c.Queries
	}
	return k
}

// repetitions resolves how many independent executions average into c's
// result: one for a LoadOnly cell, whose load is deterministic per seed;
// else the cell's override when set, else the config's.
func (r *Runner) repetitions(c Cell) int {
	switch {
	case c.LoadOnly:
		return 1
	case c.Repetitions > 0:
		return c.Repetitions
	}
	return r.Cfg.Repetitions
}

// cellSeed derives the engine seed for repetition rep of the cell
// identified by key: a stable FNV-1a hash of (Cfg.Seed, key, rep). Results
// depend only on config and cell identity, not on how many cells ran
// before — the property that lets shuffled and parallel schedules produce
// bit-identical figures.
func (r *Runner) cellSeed(key string, rep int64) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(r.Cfg.Seed))
	h.Write(b[:])
	h.Write([]byte(key))
	binary.LittleEndian.PutUint64(b[:], uint64(rep))
	h.Write(b[:])
	return int64(h.Sum64())
}

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// loadFanout is how many cores a cell's load phase fills its nodes on:
// the cores the cell worker pool leaves idle, shared evenly, and never
// more than one per node. -parallel 1 (and a benchmark or a farm worker
// of capacity 1) loads on every core; a pool as wide as GOMAXPROCS loads
// serially. Loads are bit-identical at any fan-out (see store.LoadAll).
func (r *Runner) loadFanout(c Cell) int {
	return min(c.Nodes, max(1, runtime.GOMAXPROCS(0)/r.workers()))
}

func (r *Runner) emit(line string) {
	if r.Progress == nil {
		return
	}
	r.progressMu.Lock()
	r.Progress(line)
	r.progressMu.Unlock()
}

// reportMemStats emits one -memstats line for a freshly loaded cell: the
// store's retained slab bytes (per record, when records were loaded) and
// the process-wide heap in use. Purely host-side observation — no simulation
// state is read or advanced.
func (r *Runner) reportMemStats(key string, s store.Store, records int64) {
	if r.MemStats == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	line := fmt.Sprintf("memstats %s: records=%d heap-inuse=%.1fMB", key, records,
		float64(ms.HeapInuse)/(1<<20))
	if records > 0 {
		slab := s.SlabBytes()
		line += fmt.Sprintf(" slab=%.1fMB (%.1f B/record)",
			float64(slab)/(1<<20), float64(slab)/float64(records))
	}
	r.progressMu.Lock()
	r.MemStats(line)
	r.progressMu.Unlock()
}

// reportScanStats emits one diagnostic line per measured cell whose scans
// touched an LSM store: how many sstables the scans positioned read
// cursors on and how many were skipped outright by key-range metadata
// (lsm.ScanStats). It shares the -memstats hook — host-side observation on
// stderr — and stays silent when the store keeps no such counters or no
// scan ran, so load-only grids keep their exact historical stderr.
func (r *Runner) reportScanStats(key string, s store.Store) {
	if r.MemStats == nil {
		return
	}
	positioned, pruned, ok := store.ScanStatsOf(s)
	if !ok || positioned+pruned == 0 {
		return
	}
	r.progressMu.Lock()
	r.MemStats(fmt.Sprintf("scanstats %s: tables-positioned=%d tables-pruned=%d", key, positioned, pruned))
	r.progressMu.Unlock()
}

// Run measures one cell (cached), averaging over Cfg.Repetitions
// independent executions with distinct seeds. Safe for concurrent use.
func (r *Runner) Run(c Cell) (CellResult, error) {
	res, line, err := r.do(c)
	if err == nil && line != "" {
		r.emit(line)
	}
	return res, err
}

// ExecuteCell implements CellExecutor: a local, cached, singleflighted
// measurement with no progress emission. It lets a plain Runner stand in
// wherever a remote executor is expected — in particular as a farm
// coordinator's local fallback when no workers are alive. Never set a
// runner's own Executor to the same runner: resolveCell would recurse.
func (r *Runner) ExecuteCell(c Cell) (CellResult, error) {
	res, _, err := r.do(c)
	return res, err
}

// do resolves one cell through the cache with singleflight semantics:
// concurrent calls for the same cell share one measurement. It returns the
// cell's progress line when this call did the work ("" on a cache hit or
// when another call measured it), leaving emission order to the caller.
func (r *Runner) do(c Cell) (CellResult, string, error) {
	key := r.key(c)
	r.mu.Lock()
	if res, ok := r.cache[key]; ok {
		r.mu.Unlock()
		return res, "", nil
	}
	if fl, ok := r.inflight[key]; ok {
		r.mu.Unlock()
		<-fl.done
		return fl.res, "", fl.err
	}
	fl := &inflightCell{done: make(chan struct{})}
	r.inflight[key] = fl
	r.mu.Unlock()

	var hit bool
	fl.res, hit, fl.err = r.resolveCell(c, key)

	r.mu.Lock()
	if fl.err == nil {
		r.cache[key] = fl.res
	}
	if hit {
		r.cacheHits++
	} else {
		r.executed++
	}
	delete(r.inflight, key)
	r.mu.Unlock()
	close(fl.done)
	if fl.err != nil {
		return CellResult{}, "", fl.err
	}
	return fl.res, progressLine(c, fl.res), nil
}

// resolveCell produces a cell's result from inside its singleflight slot:
// the persistent cache first (hit=true, nothing executed), else the remote
// executor when one is set, else a local measurement. Fresh results are
// written back to the persistent cache so the next process starts warm.
func (r *Runner) resolveCell(c Cell, key string) (CellResult, bool, error) {
	cacheKey := r.Cfg.Fingerprint() + "|" + key
	if r.Cache != nil {
		if res, ok := r.Cache.Get(cacheKey); ok {
			return res, true, nil
		}
	}
	var res CellResult
	var err error
	if r.Executor != nil {
		res, err = r.Executor.ExecuteCell(c)
	} else {
		res, err = r.measure(c, key)
	}
	if err == nil && r.Cache != nil {
		r.Cache.Put(cacheKey, res)
	}
	return res, false, err
}

// measure executes a cell outside the cache, averaging its repetitions.
func (r *Runner) measure(c Cell, key string) (CellResult, error) {
	var acc CellResult
	for rep := 0; rep < r.repetitions(c); rep++ {
		x, err := r.execute(c, key, int64(rep))
		if err != nil {
			return CellResult{}, err
		}
		res := x.result(c, r.Cfg.Scale)
		if rep == 0 {
			acc = res
			continue
		}
		k := float64(rep + 1)
		acc.Throughput += (res.Throughput - acc.Throughput) / k
		acc.ReadLat += (res.ReadLat - acc.ReadLat) / sim.Time(rep+1)
		acc.WriteLat += (res.WriteLat - acc.WriteLat) / sim.Time(rep+1)
		acc.ScanLat += (res.ScanLat - acc.ScanLat) / sim.Time(rep+1)
		acc.UpdateLat += (res.UpdateLat - acc.UpdateLat) / sim.Time(rep+1)
		acc.Ops += res.Ops
		acc.Errors += res.Errors
		acc.Timeouts += res.Timeouts
		if acc.Windows != nil && res.Windows != nil {
			if err := acc.Windows.Merge(res.Windows); err != nil {
				return CellResult{}, err
			}
		}
	}
	return acc, nil
}

// resolved is a cell translated into concrete run inputs: the YCSB mix
// (only its record size matters to a LoadOnly cell) or, for a query cell,
// the query mix and its APM dataset; the hardware; the number of records
// to load; and the client count (after variant overrides). execute is its
// only consumer, so measured runs and Explain interpret a cell identically.
type resolved struct {
	wl      ycsb.Workload
	mix     query.Mix // non-nil for query cells
	ds      query.Dataset
	spec    cluster.Spec
	records int64
	clients int
}

// resolve translates c into run inputs, rejecting cells the runner cannot
// honour: workloads the system cannot run, and field combinations with no
// run behind them (a load-only cell drives no workload to fault, query or
// throttle; a query cell is neither faulted nor throttled).
func (r *Runner) resolve(c Cell) (resolved, error) {
	switch {
	case c.LoadOnly && (c.Faults != "" || c.Queries != "" || c.TargetFraction > 0):
		return resolved{}, fmt.Errorf("harness: cell %s: a load-only cell cannot be faulted, queried or throttled", r.key(c))
	case c.Queries != "" && (c.Faults != "" || c.TargetFraction > 0):
		return resolved{}, fmt.Errorf("harness: cell %s: a query cell cannot be faulted or throttled", r.key(c))
	}
	rv := resolved{
		spec:    clusterSpecFor(c),
		records: recordsFor(c, r.Cfg),
		clients: Conns(c.System, c.Nodes, c.ClusterD),
	}
	var err error
	switch {
	case c.Queries != "":
		if rv.mix, err = query.ParseMix(c.Queries); err != nil {
			return resolved{}, err
		}
		if !SupportsScans(c.System) {
			return resolved{}, fmt.Errorf("harness: %s cannot run query cells: %w", c.System, store.ErrScansUnsupported)
		}
		// The query grid is sized like the cell's YCSB dataset would be.
		rv.ds = query.SizeDataset(rv.records)
		rv.records = rv.ds.Records()
		// Dashboard sessions, not YCSB load generators: a handful of
		// concurrent readers per node (each query already fans out into
		// tens of range scans).
		rv.clients = 4 * c.Nodes
	case c.LoadOnly:
		// The workload, when set, only selects the record size; unset
		// loads the paper's default records.
		if c.Workload != "" || c.Mix.Name != "" {
			if rv.wl, err = c.workload(); err != nil {
				return resolved{}, err
			}
		}
	default:
		if rv.wl, err = c.workload(); err != nil {
			return resolved{}, err
		}
		if !SupportsWorkload(c.System, rv.wl) {
			return resolved{}, fmt.Errorf("harness: %s does not support workload %s", c.System, c.workloadName())
		}
	}
	if perNode, ok, err := variantInt(c.Variants, "conns"); err != nil {
		return resolved{}, err
	} else if ok {
		rv.clients = perNode * c.Nodes
	}
	return rv, nil
}

// clusterSpecFor maps a cell to its hardware: an explicit Spec override
// wins, then the ClusterD flag, then the paper's memory-bound Cluster M.
func clusterSpecFor(c Cell) cluster.Spec {
	if c.Spec.Name != "" {
		s := c.Spec
		s.Nodes = c.Nodes
		return s
	}
	if c.ClusterD {
		return cluster.ClusterD(c.Nodes)
	}
	return cluster.ClusterM(c.Nodes)
}

// recordsFor is the number of records a cell loads (after scaling).
func recordsFor(c Cell, cfg Config) int64 {
	if c.RecordsPerNode > 0 {
		// Scenario-level dataset override: per-node count applies on any
		// cluster (Cluster D's paper-fixed total is a config default, not
		// a law of the hardware).
		return int64(float64(c.RecordsPerNode*int64(c.Nodes)) * cfg.Scale)
	}
	if c.ClusterD {
		return int64(float64(cfg.ClusterDRecords) * cfg.Scale)
	}
	return int64(float64(cfg.RecordsPerNode*int64(c.Nodes)) * cfg.Scale)
}

// execution is one finished run of a cell: the live deployment plus the
// workload's collector (nil for a LoadOnly cell, which drives nothing) and
// windowed recovery curve (nil unless the cell is faulted).
type execution struct {
	dep     *Deployment
	col     *stats.Collector
	windows *stats.WindowedLatency
}

// execute runs repetition rep of cell c (identified by key): the one
// deploy → load → drive lifecycle behind every measured cell and every
// Explain. A throttled cell first resolves its unthrottled base's
// throughput; the deployment is seeded from (key, rep); a query cell loads
// the APM measurement grid, any other cell YCSB records; a LoadOnly cell
// stops there, and any other cell injects its faults and runs its YCSB or
// query clients. Query latencies land on the scan metric — a query is a
// scan pipeline — so scenario figures read them through scan-latency.
func (r *Runner) execute(c Cell, key string, rep int64) (*execution, error) {
	rv, err := r.resolve(c)
	if err != nil {
		return nil, err
	}
	var target float64
	if base, ok := c.base(); ok {
		maxRes, err := r.Run(base)
		if err != nil {
			return nil, err
		}
		target = maxRes.Throughput * c.TargetFraction
	}

	dep, err := DeployVariants(r.cellSeed(key, rep), c.System, rv.spec, r.Cfg.Scale, c.Variants)
	if err != nil {
		return nil, err
	}
	fanout := r.loadFanout(c)
	if rv.mix != nil {
		rv.ds.Load(dep.Store, fanout)
	} else {
		ycsb.LoadSized(dep.Store, rv.records, rv.wl.FieldSize(), fanout)
	}
	r.reportMemStats(key, dep.Store, rv.records)
	x := &execution{dep: dep}
	if c.LoadOnly {
		return x, nil
	}

	// Fault injection rides the cell's own event stream: the schedule's
	// fractional windows resolve against warmup+measure, so the same
	// schedule exercises paper and quick fidelity alike.
	if c.Faults != "" {
		sched, err := fault.ParseSchedule(c.Faults)
		if err != nil {
			return nil, err
		}
		if err := fault.Inject(dep.Engine, dep.Clust.Nodes, dep.Store, sched, r.Cfg.Warmup+r.Cfg.Measure); err != nil {
			return nil, err
		}
	}
	if rv.mix != nil {
		res, err := query.Run(dep.Engine, query.RunConfig{
			Store:   dep.Store,
			Dataset: rv.ds,
			Mix:     rv.mix,
			Clients: rv.clients,
			Warmup:  r.Cfg.Warmup,
			Measure: r.Cfg.Measure,
		})
		if err != nil {
			return nil, err
		}
		x.col = res.Collector
	} else {
		res, err := ycsb.Run(dep.Engine, ycsb.RunConfig{
			Store:           dep.Store,
			Workload:        rv.wl,
			Clients:         rv.clients,
			TargetOpsPerSec: target,
			InitialRecords:  rv.records,
			Warmup:          r.Cfg.Warmup,
			Measure:         r.Cfg.Measure,
			TrackWindows:    c.Faults != "",
		})
		if err != nil {
			return nil, err
		}
		x.col, x.windows = res.Collector, res.Windows
	}
	r.reportScanStats(key, dep.Store)
	return x, nil
}

// result digests an execution of c into its data point: the workload's
// metrics (zero for a LoadOnly cell) and the store's disk usage rescaled
// to paper size.
func (x *execution) result(c Cell, scale float64) CellResult {
	res := CellResult{
		Cell:                c,
		DiskBytesPaperScale: float64(x.dep.Store.DiskUsage()) / scale,
		Windows:             x.windows,
	}
	if x.col != nil {
		res.Throughput = x.col.Throughput()
		res.ReadLat = x.col.MeanLatency(stats.OpRead)
		res.WriteLat = x.col.MeanLatency(stats.OpInsert)
		res.UpdateLat = x.col.MeanLatency(stats.OpUpdate)
		res.ScanLat = x.col.MeanLatency(stats.OpScan)
		res.Ops = x.col.Ops()
		res.Errors = x.col.Errors()
		res.Timeouts = x.col.Timeouts()
	}
	return res
}

func progressLine(c Cell, res CellResult) string {
	var line string
	if c.LoadOnly {
		line = fmt.Sprintf("%-10s n=%-2d load disk=%8.2fGB (paper scale)",
			c.System, c.Nodes, res.DiskBytesPaperScale/1e9)
	} else if c.Queries != "" {
		line = fmt.Sprintf("%-10s n=%-2d %-4s tput=%9.0f qry/s query=%9v err=%d",
			c.System, c.Nodes, "qry", res.Throughput, res.ScanLat, res.Errors)
	} else {
		line = fmt.Sprintf("%-10s n=%-2d %-4s tput=%9.0f ops/s read=%9v write=%9v scan=%9v err=%d",
			c.System, c.Nodes, c.workloadName(), res.Throughput, res.ReadLat, res.WriteLat, res.ScanLat, res.Errors)
	}
	if c.Variants != "" {
		line += " [" + c.Variants + "]"
	}
	if c.Faults != "" {
		line += " {" + c.Faults + "}"
	}
	return line
}

// RunAll executes cells on a pool of Workers goroutines. Duplicates are
// measured once; a TargetFraction cell is scheduled only after its
// unthrottled base cell when the base is part of the plan (otherwise Run
// resolves the dependency recursively on the same worker). Progress lines
// come out in plan order regardless of completion order. All runnable
// cells execute even if one errors; the first error (in completion order)
// is returned at the end.
func (r *Runner) RunAll(cells []Cell) error {
	// Dedupe, preserving first-occurrence order: plan order is also
	// progress-emission order.
	var plan []Cell
	index := map[string]int{}
	for _, c := range cells {
		k := r.key(c)
		if _, ok := index[k]; ok {
			continue
		}
		index[k] = len(plan)
		plan = append(plan, c)
	}
	n := len(plan)
	if n == 0 {
		return nil
	}

	// Dependency DAG: throttled cell <- its base cell. Depth is one by
	// construction, but the scheduler below handles any DAG.
	dependents := make([][]int, n)
	blocked := make([]int, n)
	for i, c := range plan {
		if base, ok := c.base(); ok {
			if j, ok := index[r.key(base)]; ok && j != i {
				dependents[j] = append(dependents[j], i)
				blocked[i]++
			}
		}
	}

	ready := make(chan int, n) // buffered: sends below never block
	for i, b := range blocked {
		if b == 0 {
			ready <- i
		}
	}

	var (
		mu        sync.Mutex
		firstErr  error
		completed = make([]bool, n)
		lines     = make([]string, n)
		skip      = make([]error, n) // dependency failure to report instead of running
		next      int
		done      int
	)
	complete := func(i int, line string, err error) {
		mu.Lock()
		defer mu.Unlock()
		completed[i] = true
		lines[i] = line
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cell %s: %w", r.key(plan[i]), err)
		}
		for next < n && completed[next] {
			if lines[next] != "" {
				r.emit(lines[next])
			}
			next++
		}
		for _, d := range dependents[i] {
			// Errors are not cached (a cell stays retryable), so a
			// dependent dispatched after its base failed would re-measure
			// the doomed base from scratch; fail it directly instead.
			if err != nil && skip[d] == nil {
				skip[d] = fmt.Errorf("base cell %s: %w", r.key(plan[i]), err)
			}
			blocked[d]--
			if blocked[d] == 0 {
				ready <- d
			}
		}
		if done++; done == n {
			close(ready)
		}
	}

	workers := r.workers()
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				mu.Lock()
				skipped := skip[i]
				mu.Unlock()
				if skipped != nil {
					complete(i, "", skipped)
					continue
				}
				_, line, err := r.do(plan[i])
				complete(i, line, err)
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Executed reports how many cells this runner has measured (cache hits and
// singleflight followers excluded). Tests use it to pin the planning
// contract: generating a figure after RunAll(CellsFor(id)) must execute
// nothing new.
func (r *Runner) Executed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed
}

// CacheHits reports how many cells were served by the persistent Cache
// instead of being executed. A warm re-run of an identical experiment
// should show Executed()==0 with every planned cell counted here — the
// property the CI warm-cache gate asserts.
func (r *Runner) CacheHits() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cacheHits
}
