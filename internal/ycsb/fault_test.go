package ycsb

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
)

// downStore rejects every operation with ErrUnavailable, modeling a window
// in which the client's entire key range is on dead nodes.
type downStore struct{}

func (downStore) Name() string { return "down" }
func (downStore) Insert(p *sim.Proc, key string, f store.Fields) error {
	return store.ErrUnavailable
}
func (downStore) Update(p *sim.Proc, key string, f store.Fields) error {
	return store.ErrUnavailable
}
func (downStore) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	return store.FieldsView{}, store.ErrUnavailable
}
func (downStore) Scan(p *sim.Proc, start string, count int) ([]store.Record, error) {
	return nil, store.ErrUnavailable
}
func (downStore) Nodes() int                                 { return 1 }
func (downStore) LoadNodes(dst []int, key string) []int      { return append(dst, 0) }
func (downStore) LoadNode(_ int, key string, f store.Fields) {}
func (downStore) SealNode(int)                               {}
func (downStore) DiskUsage() int64                           { return 0 }
func (downStore) SlabBytes() int64                           { return 0 }

// A run against a 100%-unavailable store must terminate (the backoff
// advances virtual time), record zero successful ops, and count every
// attempt as an error rather than crashing or dividing by zero.
func TestFullyUnavailableWindowYieldsZeroOkOps(t *testing.T) {
	e := sim.NewEngine(7)
	res, err := Run(e, RunConfig{
		Store:          downStore{},
		Workload:       WorkloadR,
		Clients:        4,
		InitialRecords: 100,
		Warmup:         10 * sim.Millisecond,
		Measure:        100 * sim.Millisecond,
		TrackWindows:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Ops(); got != 0 {
		t.Fatalf("ops = %d, want 0", got)
	}
	if res.Errors() == 0 {
		t.Fatal("no errors recorded against a fully-down store")
	}
	// 4 clients x 1ms backoff over a 100ms window: roughly 400 attempts.
	if errs := res.Errors(); errs < 300 || errs > 500 {
		t.Fatalf("errors = %d, want ~400 (backoff-paced attempts)", errs)
	}
	sum := res.Summarize()
	if sum.Throughput != 0 {
		t.Fatalf("throughput = %g, want 0", sum.Throughput)
	}
	if res.Windows == nil {
		t.Fatal("TrackWindows set but Windows is nil")
	}
	for i := 0; i < res.Windows.Windows(); i++ {
		if av := res.Windows.Availability(i); av != 0 {
			t.Fatalf("window %d availability = %g, want 0", i, av)
		}
		if q := res.Windows.Quantile(i, 0.99); q != 0 {
			t.Fatalf("window %d p99 = %v, want 0 (no successes)", i, q)
		}
	}
}

// An OpTimeout below the store's latency classifies every completion as a
// timeout: counted, windowed as failure, excluded from success stats.
func TestOpTimeoutClassification(t *testing.T) {
	e := sim.NewEngine(3)
	f := newFake(5*sim.Millisecond, 5*sim.Millisecond, 0)
	Load(f, 100)
	res, err := Run(e, RunConfig{
		Store:          f,
		Workload:       WorkloadR,
		Clients:        2,
		InitialRecords: 100,
		Measure:        100 * sim.Millisecond,
		OpTimeout:      sim.Millisecond,
		TrackWindows:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops() != 0 {
		t.Fatalf("ops = %d, want 0 (all over deadline)", res.Ops())
	}
	if res.Timeouts() == 0 {
		t.Fatal("no timeouts recorded")
	}
	if res.Summarize().Timeouts != res.Timeouts() {
		t.Fatal("summary does not carry timeout count")
	}
	var failed int64
	for i := 0; i < res.Windows.Windows(); i++ {
		failed += res.Windows.Failed(i)
	}
	if failed == 0 {
		t.Fatal("timeouts not reflected in windowed failures")
	}
}

// Latency samples land in the window of their completion time with the
// configured quantiles intact.
func TestRunPopulatesWindows(t *testing.T) {
	e := sim.NewEngine(5)
	f := newFake(2*sim.Millisecond, 2*sim.Millisecond, 0)
	Load(f, 100)
	res, err := Run(e, RunConfig{
		Store:          f,
		Workload:       WorkloadR,
		Clients:        2,
		InitialRecords: 100,
		Measure:        100 * sim.Millisecond,
		TrackWindows:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows == nil || res.Windows.Windows() == 0 {
		t.Fatal("no windows recorded")
	}
	var ok int64
	for i := 0; i < res.Windows.Windows(); i++ {
		ok += res.Windows.Ok(i)
		if av := res.Windows.Availability(i); res.Windows.Ok(i) > 0 && av != 1 {
			t.Fatalf("window %d availability = %g, want 1", i, av)
		}
	}
	if ok != res.Ops() {
		t.Fatalf("windowed ok = %d, collector ops = %d", ok, res.Ops())
	}
}
