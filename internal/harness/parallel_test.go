package harness

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// orderCells is a cheap cell set covering the schedule-sensitive cases:
// multiple systems, node counts, workloads, and a throttled cell whose
// base must be resolved whatever the order.
func orderCells() []Cell {
	return []Cell{
		{System: Redis, Nodes: 1, Workload: "R"},
		{System: Voldemort, Nodes: 1, Workload: "R"},
		{System: Redis, Nodes: 2, Workload: "W"},
		{System: Voldemort, Nodes: 1, Workload: "R", TargetFraction: 0.5},
		{System: Redis, Nodes: 1, Workload: "RW"},
		{System: Redis, Nodes: 1, LoadOnly: true},
	}
}

// runSerially measures cells one at a time in the given order on a fresh
// runner and returns result-by-key.
func runSerially(t *testing.T, cells []Cell) map[string]CellResult {
	t.Helper()
	r := NewRunner(testCfg())
	out := map[string]CellResult{}
	for _, c := range cells {
		res, err := r.Run(c)
		if err != nil {
			t.Fatalf("cell %+v: %v", c, err)
		}
		out[r.key(c)] = res
	}
	return out
}

// TestCellOrderIndependence pins the seeding behavior change of the
// plan/execute refactor: a cell's seed derives from (Cfg.Seed, cell
// identity, repetition), so results are bit-identical whether cells run
// first, last, shuffled, or in parallel. The shuffled order deliberately
// puts the TargetFraction cell before its unthrottled base, forcing the
// dependency to resolve recursively mid-schedule.
func TestCellOrderIndependence(t *testing.T) {
	cells := orderCells()
	baseline := runSerially(t, cells)

	shuffled := make([]Cell, len(cells))
	for i, c := range cells {
		shuffled[len(cells)-1-i] = c
	}
	reversed := runSerially(t, shuffled)
	for k, want := range baseline {
		if got := reversed[k]; got != want {
			t.Errorf("cell %s differs under reversed order:\n  in order: %+v\n  reversed: %+v", k, want, got)
		}
	}

	for _, workers := range []int{1, 4} {
		r := NewRunner(testCfg())
		r.Workers = workers
		if err := r.RunAll(shuffled); err != nil {
			t.Fatalf("RunAll(workers=%d): %v", workers, err)
		}
		for _, c := range cells {
			res, err := r.Run(c) // warm cache
			if err != nil {
				t.Fatal(err)
			}
			if want := baseline[r.key(c)]; res != want {
				t.Errorf("cell %s differs under RunAll(workers=%d):\n  serial:   %+v\n  parallel: %+v", r.key(c), workers, want, res)
			}
		}
	}
}

// TestRunAllProgressInPlanOrder verifies progress lines come out in plan
// order even when workers finish out of order.
func TestRunAllProgressInPlanOrder(t *testing.T) {
	cells := orderCells()
	want := runSerially(t, cells) // also gives the expected line count

	r := NewRunner(testCfg())
	r.Workers = 4
	var mu sync.Mutex
	var lines []string
	r.Progress = func(line string) {
		mu.Lock()
		lines = append(lines, line)
		mu.Unlock()
	}
	if err := r.RunAll(cells); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d progress lines, want %d:\n%v", len(lines), len(want), lines)
	}
	var expect []string
	for _, c := range cells {
		res, err := r.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		expect = append(expect, progressLine(c, res))
	}
	for i := range expect {
		if lines[i] != expect[i] {
			t.Errorf("progress line %d out of plan order:\n  got  %q\n  want %q", i, lines[i], expect[i])
		}
	}
}

// TestRunAllSingleflightCache hammers the cache from RunAll plus direct
// concurrent Run calls; under -race this doubles as the cache's race test,
// and the executed counter proves every duplicate was deduplicated into
// one measurement.
func TestRunAllSingleflightCache(t *testing.T) {
	r := NewRunner(testCfg())
	r.Workers = 8
	unique := []Cell{
		{System: Redis, Nodes: 1, Workload: "R"},
		{System: Voldemort, Nodes: 1, Workload: "R"},
		{System: Redis, Nodes: 1, LoadOnly: true},
	}
	var cells []Cell
	for i := 0; i < 8; i++ {
		cells = append(cells, unique...)
	}

	var wg sync.WaitGroup
	errs := make([]error, len(unique))
	for i, c := range unique {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = r.Run(c)
		}()
	}
	err := r.RunAll(cells)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errs {
		if e != nil {
			t.Fatal(e)
		}
	}
	if got := r.Executed(); got != int64(len(unique)) {
		t.Errorf("executed %d measurements for %d unique cells (singleflight failed to dedupe)", got, len(unique))
	}
}

// TestRunAllErrorDoesNotPoison verifies an invalid cell reports its error
// while the rest of the plan still executes, and that dependents of a
// failed base cell are failed directly instead of re-measuring the doomed
// base (errors are not cached, so a dispatched dependent would otherwise
// deploy and run the base again just to fail).
func TestRunAllErrorDoesNotPoison(t *testing.T) {
	r := NewRunner(testCfg())
	r.Workers = 2
	good := Cell{System: Redis, Nodes: 1, Workload: "R"}
	bad := Cell{System: Voldemort, Nodes: 1, Workload: "RS"} // no scan support
	badThrottled := bad
	badThrottled.TargetFraction = 0.5
	if err := r.RunAll([]Cell{bad, badThrottled, good}); err == nil {
		t.Fatal("RunAll swallowed the invalid cell's error")
	}
	// Exactly two measurements: the failing base and the good cell; the
	// throttled dependent must have been skipped, not re-attempted.
	if got := r.Executed(); got != 2 {
		t.Errorf("executed %d cells, want 2 (dependent of failed base must not re-run it)", got)
	}
	before := r.Executed()
	if _, err := r.Run(good); err != nil {
		t.Fatal(err)
	}
	if r.Executed() != before {
		t.Error("good cell was not cached by the failing RunAll")
	}
}

// TestTinyTargetFractionKeysDistinctly guards the singleflight against a
// key collision: a fraction that a rounded format would print as 0 must
// still key differently from its unthrottled base, or resolving the base
// inside the cell's own measurement deadlocks on its own inflight slot.
func TestTinyTargetFractionKeysDistinctly(t *testing.T) {
	r := NewRunner(testCfg())
	c := Cell{System: Redis, Nodes: 1, Workload: "R", TargetFraction: 0.004}
	base, _ := c.base()
	if r.key(c) == r.key(base) {
		t.Fatalf("tiny fraction keys like its base (%s): Run would self-deadlock", r.key(c))
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(c)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Run(tiny TargetFraction) hung (singleflight self-wait)")
	}
}

// planCfg is deliberately tiny: plan-coverage tests only care which cells
// execute, not whether the numbers are statistically meaningful.
func planCfg() Config {
	return Config{
		Scale:          0.0005,
		Warmup:         50 * sim.Millisecond,
		Measure:        150 * sim.Millisecond,
		NodeCounts:     []int{1, 2},
		RecordsPerNode: 10_000_000,
	}.Defaults()
}

// TestCellsForCoversEveryFigure asserts the planning layer knows every
// figure and orders TargetFraction cells after their base cells.
func TestCellsForCoversEveryFigure(t *testing.T) {
	r := NewRunner(planCfg())
	for _, id := range FigureOrder {
		cells := r.CellsFor(id)
		if len(cells) == 0 {
			t.Errorf("figure %s has no plan", id)
			continue
		}
		seen := map[string]bool{}
		for _, c := range cells {
			if base, ok := c.base(); ok && !seen[r.key(base)] {
				t.Errorf("figure %s: cell %s planned before its base %s", id, r.key(c), r.key(base))
			}
			seen[r.key(c)] = true
		}
	}
	if r.CellsFor("nope") != nil {
		t.Error("unknown figure returned a plan")
	}
}

// TestFiguresReadFromWarmCache pins the plan/execute contract: after
// RunAll(CellsFor(id)), generating the figure must execute zero additional
// cells — the plan is complete, and generation is pure cache reads.
func TestFiguresReadFromWarmCache(t *testing.T) {
	ids := []string{"3", "17"} // one sweep, the load-only figure
	if !testing.Short() {
		ids = append(ids, "15", "18") // bounded (dependencies), Cluster D
	}
	for _, id := range ids {
		r := NewRunner(planCfg())
		if err := r.RunAll(r.CellsFor(id)); err != nil {
			t.Fatalf("figure %s plan: %v", id, err)
		}
		warm := r.Executed()
		fig, err := r.Figures()[id]()
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if len(fig.Series) == 0 {
			t.Fatalf("figure %s is empty", id)
		}
		if got := r.Executed(); got != warm {
			t.Errorf("figure %s executed %d cells beyond its plan (plan incomplete)", id, got-warm)
		}
	}
}

// syntheticExecutor answers every cell at once with a fixed result, so the
// plan-completeness check covers every grid without simulating anything.
type syntheticExecutor struct{}

func (syntheticExecutor) ExecuteCell(c Cell) (CellResult, error) {
	return CellResult{Cell: c, Throughput: 1000, ReadLat: sim.Millisecond, WriteLat: sim.Millisecond,
		ScanLat: sim.Millisecond, UpdateLat: sim.Millisecond, Ops: 1000, DiskBytesPaperScale: 1e9}, nil
}

// TestEveryGridPlanIsComplete pins the plan/assemble contract on every
// grid — each figure, each ablation, the APM dashboard and each example
// scenario: the plan lists each cell key once, and after RunAll(plan)
// generating the figure executes nothing more (generation is pure cache
// reads), with every series non-empty and carrying one Y per X.
func TestEveryGridPlanIsComplete(t *testing.T) {
	type gridCase struct {
		name  string
		plan  func(r *Runner) ([]Cell, error)
		build func(r *Runner) (Figure, error)
	}
	var cases []gridCase
	for _, id := range FigureOrder {
		cases = append(cases, gridCase{"figure-" + id,
			func(r *Runner) ([]Cell, error) { return r.CellsFor(id), nil },
			func(r *Runner) (Figure, error) { return r.Figures()[id]() }})
	}
	for _, id := range AblationOrder {
		cases = append(cases, gridCase{id,
			func(r *Runner) ([]Cell, error) { return r.AblationCellsFor(id), nil },
			func(r *Runner) (Figure, error) { return r.Ablations()[id]() }})
	}
	scenarios := []*Scenario{APMDashboard(Quick().NodeCounts)}
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ParseScenario(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		scenarios = append(scenarios, s)
	}
	for _, s := range scenarios {
		cases = append(cases, gridCase{"scenario-" + s.Name, func(*Runner) ([]Cell, error) { return s.Cells() },
			func(r *Runner) (Figure, error) { return r.RunScenario(s) }})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner(Quick())
			r.Executor = syntheticExecutor{}
			plan, err := tc.plan(r)
			if err != nil || len(plan) == 0 {
				t.Fatalf("plan = %d cells, %v", len(plan), err)
			}
			keys := map[string]bool{}
			for _, c := range plan {
				if k := r.key(c); keys[k] {
					t.Errorf("plan lists %s twice", k)
				} else {
					keys[k] = true
				}
			}
			if err := r.RunAll(plan); err != nil {
				t.Fatal(err)
			}
			warm := r.Executed()
			fig, err := tc.build(r)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Executed(); got != warm {
				t.Errorf("generation executed %d cells beyond the plan", got-warm)
			}
			if len(fig.Series) == 0 {
				t.Fatal("figure has no series")
			}
			for _, s := range fig.Series {
				if len(s.X) == 0 || len(s.X) != len(s.Y) {
					t.Errorf("series %s: %d X, %d Y", s.Label, len(s.X), len(s.Y))
				}
			}
		})
	}
}
