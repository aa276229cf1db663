package ycsb

import (
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
)

// keyBuf builds record keys into one reusable buffer, handing them out as
// zero-copy string views. Sound because stores copy key bytes on ingest and
// never retain a lookup key (see store.Store): the view aliases the buffer,
// and the next key overwrites it in place. Each goroutine owns its buffer;
// the view must not outlive the operation it was built for.
type keyBuf []byte

func (b *keyBuf) key(i int64) string {
	*b = store.AppendKey((*b)[:0], i)
	return unsafe.String(unsafe.SliceData(*b), len(*b))
}

// RunConfig describes one benchmark execution against a deployed store.
type RunConfig struct {
	Store    store.Store
	Workload Workload
	// Clients is the number of concurrent connections (closed loop). The
	// paper used 128 per server node on Cluster M, 2 per core on Cluster D.
	Clients int
	// TargetOpsPerSec throttles the aggregate rate (YCSB's -target flag);
	// zero runs at maximum throughput.
	TargetOpsPerSec float64
	// InitialRecords is how many records were loaded before the run.
	InitialRecords int64
	// Warmup and Measure bound the run: statistics are collected only
	// inside the measurement window.
	Warmup  sim.Time
	Measure sim.Time
	// OpTimeout classifies operations slower than this as timed out: they
	// count as failures (and windowed failures), not latency samples. Zero
	// disables the classification.
	OpTimeout sim.Time
	// TrackWindows records per-window latency quantiles and availability
	// over the measurement window (fault-injection diagnostics), in
	// windows Measure/20 wide.
	TrackWindows bool
}

// unavailableBackoff is how long a client sleeps after an ErrUnavailable
// response before retrying. Instant failures do not advance virtual time,
// so without a backoff a closed-loop client would spin forever at one
// instant against a fully-down store.
const unavailableBackoff = sim.Millisecond

// Result carries the collector plus run metadata.
type Result struct {
	*stats.Collector
	Config RunConfig
	// Windows holds per-window quantiles and availability (nil unless
	// Config.TrackWindows was set).
	Windows *stats.WindowedLatency
}

// Load populates the store with n records (record numbers 0..n-1) without
// consuming virtual time, mirroring the paper's separate load phase.
func Load(s store.Store, n int64) { LoadSized(s, n, store.FieldBytes, 1) }

// LoadSized is Load with fieldBytes-sized value fields per record, for
// workloads that vary record size (0 means the default 10 bytes), on up
// to fanout concurrent workers (see store.LoadAll; the result does not
// depend on fanout).
func LoadSized(s store.Store, n int64, fieldBytes, fanout int) {
	store.LoadAll(s, store.Records{
		Count:      n,
		NewBuilder: func() store.Builder { return &recordBuilder{fieldBytes: fieldBytes} },
	}, fanout)
}

// recordBuilder builds YCSB records: store.Key and FillFields into one
// reused field set.
type recordBuilder struct {
	fields     store.Fields
	fieldBytes int
}

func (b *recordBuilder) AppendKey(dst []byte, i int64) []byte { return store.AppendKey(dst, i) }

func (b *recordBuilder) Fields(i int64) store.Fields {
	b.fields = store.FillFields(b.fields, i, b.fieldBytes)
	return b.fields
}

// Run executes the workload and returns collected statistics. It drives the
// engine itself (warmup + measure, then lets in-flight operations drain).
// A scan against a store without scan support fails the run with
// store.ErrScansUnsupported: the failure is instant, so a client retrying
// it would spin forever at one virtual instant.
func Run(e *sim.Engine, cfg RunConfig) (*Result, error) {
	if err := cfg.Workload.Validate(); err != nil {
		return nil, err
	}
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("ycsb: need at least one client")
	}
	if cfg.Measure <= 0 {
		return nil, fmt.Errorf("ycsb: measurement window must be positive")
	}
	col := stats.NewCollector()
	var windows *stats.WindowedLatency
	if cfg.TrackWindows {
		windows = stats.NewWindowedLatency(e.Now()+cfg.Warmup, cfg.Measure/20)
	}
	stopAt := e.Now() + cfg.Warmup + cfg.Measure
	inserted := cfg.InitialRecords
	chooser := newChooser(cfg.Workload.Chooser)
	fieldBytes := cfg.Workload.FieldSize()

	// Per-client pacing interval for throttled runs.
	var interval sim.Time
	if cfg.TargetOpsPerSec > 0 {
		perClient := cfg.TargetOpsPerSec / float64(cfg.Clients)
		interval = sim.Time(float64(sim.Second) / perClient)
	}

	e.Schedule(cfg.Warmup, func() { col.Begin(e.Now()) })
	e.Schedule(cfg.Warmup+cfg.Measure, func() { col.Finish(e.Now()) })

	var unsupported error
	for i := 0; i < cfg.Clients; i++ {
		e.Go(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			rng := p.Rand()
			// Stores copy on ingest, so each client reuses one key
			// buffer and one fields buffer for every operation: the
			// steady-state operation loop allocates nothing.
			var fbuf store.Fields
			var kb keyBuf
			// Desynchronize client start within one pacing interval.
			if interval > 0 {
				p.Sleep(sim.Time(rng.Int63n(int64(interval) + 1)))
			}
			for p.Now() < stopAt {
				opStart := p.Now()
				kind := cfg.Workload.pick(rng.Float64())
				var err error
				switch kind {
				case stats.OpRead:
					key := kb.key(chooser.Choose(inserted, rng.Float64(), rng.Float64()))
					_, err = cfg.Store.Read(p, key)
				case stats.OpScan:
					key := kb.key(chooser.Choose(inserted, rng.Float64(), rng.Float64()))
					_, err = cfg.Store.Scan(p, key, cfg.Workload.ScanLength)
				case stats.OpInsert:
					id := inserted
					inserted++
					fbuf = store.FillFields(fbuf, id, fieldBytes)
					err = cfg.Store.Insert(p, kb.key(id), fbuf)
				case stats.OpUpdate:
					id := chooser.Choose(inserted, rng.Float64(), rng.Float64())
					fbuf = store.FillFields(fbuf, id, fieldBytes)
					err = cfg.Store.Update(p, kb.key(id), fbuf)
				}
				switch lat := p.Now() - opStart; {
				case err != nil:
					if errors.Is(err, store.ErrScansUnsupported) {
						unsupported = err
						return
					}
					col.RecordError()
					if windows != nil && col.Active() {
						windows.RecordFailure(p.Now())
					}
					if errors.Is(err, store.ErrUnavailable) {
						// Pace retries: the failure was instant in
						// virtual time.
						p.Sleep(unavailableBackoff)
					}
				case cfg.OpTimeout > 0 && lat > cfg.OpTimeout:
					col.RecordTimeout()
					if windows != nil && col.Active() {
						windows.RecordFailure(p.Now())
					}
				default:
					col.Record(kind, lat)
					if windows != nil && col.Active() {
						windows.Record(p.Now(), lat)
					}
				}
				if interval > 0 {
					next := opStart + interval
					if next > p.Now() {
						p.Sleep(next - p.Now())
					}
				}
			}
		})
	}
	e.Run(0)
	if unsupported != nil {
		return nil, unsupported
	}
	if col.Window() == 0 {
		col.Finish(e.Now())
	}
	return &Result{Collector: col, Config: cfg, Windows: windows}, nil
}
