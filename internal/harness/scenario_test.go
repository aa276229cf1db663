package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ycsb"
)

// exampleScenarioJSON mirrors examples/scenarios/record-sizes.json in
// miniature: a custom (non-Table-1) mix, a preset reference, and a variant
// axis.
const exampleScenarioJSON = `{
  "name": "mini",
  "description": "mixed grid",
  "systems": ["redis", "cassandra"],
  "workloads": [
    {"name": "R"},
    {"name": "mix80", "read": 0.8, "scan": 0.1, "insert": 0.1, "scanLength": 20, "fieldBytes": 50}
  ],
  "nodes": [1, 2],
  "variants": ["", "conns=16"]
}`

// TestScenarioRoundTrip pins JSON -> cells -> JSON: a parsed scenario
// re-marshals to a document that parses back to the identical cell plan
// (same cells, same cache keys, and therefore the same seeds).
func TestScenarioRoundTrip(t *testing.T) {
	s1, err := ParseScenario([]byte(exampleScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	cells1, err := s1.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells1) == 0 {
		t.Fatal("scenario expanded to zero cells")
	}
	data, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseScenario(data)
	if err != nil {
		t.Fatalf("re-marshaled scenario does not parse: %v\n%s", err, data)
	}
	cells2, err := s2.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells1, cells2) {
		t.Fatalf("cells changed across the round trip:\n  first:  %+v\n  second: %+v", cells1, cells2)
	}
	r := NewRunner(planCfg())
	for i := range cells1 {
		if r.key(cells1[i]) != r.key(cells2[i]) {
			t.Fatalf("cell %d key changed across the round trip: %s vs %s",
				i, r.key(cells1[i]), r.key(cells2[i]))
		}
	}
}

// TestScenarioGridExpansion checks the grid cross product and that preset
// references ride the figures' cache keys while custom mixes key by their
// full parameters.
func TestScenarioGridExpansion(t *testing.T) {
	s, err := ParseScenario([]byte(exampleScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// 2 systems x 2 workloads x 2 nodes x 2 variants.
	if len(cells) != 16 {
		t.Fatalf("grid expanded to %d cells, want 16", len(cells))
	}
	r := NewRunner(planCfg())
	var presetKey, mixKey string
	for _, c := range cells {
		k := r.key(c)
		switch {
		case c.Workload == "R" && c.Variants == "" && c.Nodes == 1 && c.System == Redis:
			presetKey = k
		case c.Mix.Name == "mix80" && c.Variants == "" && c.Nodes == 1 && c.System == Redis:
			mixKey = k
		}
	}
	// The preset reference must share the figure cell's historical key.
	if want := r.key(Cell{System: Redis, Nodes: 1, Workload: "R"}); presetKey != want {
		t.Errorf("preset cell key %q does not match figure cell key %q", presetKey, want)
	}
	// The custom mix keys by full-precision parameters.
	for _, frag := range []string{"mix80", "r=0.8", "s=0.1", "i=0.1", "len=20", "fb=50"} {
		if !strings.Contains(mixKey, frag) {
			t.Errorf("custom mix key %q missing %q", mixKey, frag)
		}
	}
}

// TestScenarioSkipsUnsupportedPairs: a grid naming Voldemort with a scan
// mix skips that pair (as the paper's scan figures do) instead of failing
// the whole scenario.
func TestScenarioSkipsUnsupportedPairs(t *testing.T) {
	s := &Scenario{
		Name:      "skip",
		Systems:   []System{Voldemort, Redis},
		Workloads: []ScenarioWorkload{{Name: "RS"}},
		Nodes:     []int{1},
	}
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].System != Redis {
		t.Fatalf("want only the redis cell, got %+v", cells)
	}
}

// TestScenarioValidation covers the rejection paths: bad proportions,
// preset shadowing, unknown fields/systems/metrics, and loadOnly rules.
func TestScenarioValidation(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name:      "v",
			Systems:   []System{Redis},
			Workloads: []ScenarioWorkload{{Name: "R"}},
			Nodes:     []int{1},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "needs a name"},
		{"no systems", func(s *Scenario) { s.Systems = nil }, "no systems"},
		{"unknown system", func(s *Scenario) { s.Systems = []System{"mongodb"} }, "unknown system"},
		{"no nodes", func(s *Scenario) { s.Nodes = nil }, "no node counts"},
		{"bad node", func(s *Scenario) { s.Nodes = []int{0} }, "< 1"},
		{"no workloads", func(s *Scenario) { s.Workloads = nil }, "no workloads"},
		{"bad mix sum", func(s *Scenario) {
			s.Workloads = []ScenarioWorkload{{Name: "half", Read: 0.5}}
		}, "sum to"},
		{"preset shadow", func(s *Scenario) {
			s.Workloads = []ScenarioWorkload{{Name: "R", Read: 0.5, Insert: 0.5}}
		}, "shadows a Table 1 preset"},
		{"bad distribution", func(s *Scenario) {
			s.Workloads = []ScenarioWorkload{{Name: "d", Read: 1, Distribution: "pareto"}}
		}, "unknown distribution"},
		{"negative field size", func(s *Scenario) {
			s.Workloads = []ScenarioWorkload{{Name: "neg", Read: 1, FieldBytes: -3}}
		}, "negative field size"},
		{"bad cluster", func(s *Scenario) { s.Cluster = "X" }, "unknown cluster"},
		{"bad variant", func(s *Scenario) { s.Variants = []string{"replication"} }, "malformed variant"},
		{"bad metric", func(s *Scenario) { s.Metric = "p99" }, "unknown metric"},
		{"loadOnly metric", func(s *Scenario) { s.LoadOnly = true; s.Metric = "throughput" }, "loadOnly grids"},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base scenario invalid: %v", err)
	}
	// Unknown JSON fields are rejected (a typo must not drop a grid axis).
	if _, err := ParseScenario([]byte(`{"name":"x","systems":["redis"],"nodes":[1],"workload":[{"name":"R"}]}`)); err == nil {
		t.Error("unknown JSON field accepted")
	}
}

// TestUpdateMixRunsOnAllSystems pins the update-support matrix at the
// execution layer: with the B-tree stores' read-modify-write paths, a
// 50/50 read/update mix measures real throughput and update latency on
// every system — the YCSB-A shape the paper's four upsert models used to
// monopolize.
func TestUpdateMixRunsOnAllSystems(t *testing.T) {
	r := NewRunner(planCfg())
	mix := ycsb.Workload{Name: "upd", ReadProp: 0.5, UpdateProp: 0.5, ScanLength: 50}
	for _, sys := range AllSystems {
		res, err := r.Run(Cell{System: sys, Nodes: 1, Mix: mix})
		if err != nil {
			t.Fatalf("%s update mix: %v", sys, err)
		}
		if res.Throughput <= 0 || res.UpdateLat <= 0 || res.ReadLat <= 0 {
			t.Fatalf("%s update mix measured nothing: %+v", sys, res)
		}
		if res.Errors > 0 {
			t.Fatalf("%s update mix recorded %d errors (updates of loaded keys must hit)", sys, res.Errors)
		}
	}
}

// TestScenarioRunRendersFigure executes a small custom-mix grid end to end
// and checks the figure shape, including that a non-default record size
// actually changes the store's footprint.
func TestScenarioRunRendersFigure(t *testing.T) {
	s := &Scenario{
		Name:        "small",
		Description: "custom mix",
		Systems:     []System{Redis},
		Workloads: []ScenarioWorkload{
			{Name: "mix80", Read: 0.8, Scan: 0.1, Insert: 0.1, ScanLength: 10},
		},
		Nodes:  []int{1, 2},
		Metric: "throughput",
	}
	r := NewRunner(planCfg())
	fig, err := r.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "scenario-small" || len(fig.Series) != 1 {
		t.Fatalf("figure shape wrong: %+v", fig)
	}
	if got := fig.Series[0].Label; got != "redis/mix80" {
		t.Fatalf("series label = %q", got)
	}
	if len(fig.Series[0].Y) != 2 || fig.Series[0].Y[0] <= 0 {
		t.Fatalf("series has no measurements: %+v", fig.Series[0])
	}
	// Generating the figure again is pure cache reads.
	warm := r.Executed()
	if _, err := r.RunScenario(s); err != nil {
		t.Fatal(err)
	}
	if got := r.Executed(); got != warm {
		t.Errorf("second RunScenario executed %d extra cells", got-warm)
	}
}

// TestRecordSizeChangesFootprint pins that a workload's fieldBytes reaches
// the store: loading bigger records must grow the modeled footprint (on a
// byte-accounted store — Cassandra's SSTables charge actual field bytes;
// the MySQL/Voldemort page models count rows, not bytes).
func TestRecordSizeChangesFootprint(t *testing.T) {
	r := NewRunner(planCfg())
	small, err := r.Run(Cell{System: Cassandra, Nodes: 1, LoadOnly: true,
		Mix: ycsb.Workload{Name: "rec10", InsertProp: 1, FieldBytes: 10}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := r.Run(Cell{System: Cassandra, Nodes: 1, LoadOnly: true,
		Mix: ycsb.Workload{Name: "rec200", InsertProp: 1, FieldBytes: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if big.DiskBytesPaperScale <= small.DiskBytesPaperScale {
		t.Fatalf("200-byte fields (%.0f) should out-size 10-byte fields (%.0f)",
			big.DiskBytesPaperScale, small.DiskBytesPaperScale)
	}
}

// TestAblationCellsCached mirrors TestFiguresReadFromWarmCache for the
// ablation registry: after RunAll over an ablation's declared grid,
// generating the ablation executes zero additional cells — the grids are
// complete and generation is pure cache reads.
func TestAblationCellsCached(t *testing.T) {
	ids := []string{"ablation-redis-sharding", "ablation-mysql-binlog"}
	if !testing.Short() {
		ids = append(ids, "ablation-voltdb-async")
	}
	for _, id := range ids {
		r := NewRunner(planCfg())
		cells := r.AblationCellsFor(id)
		if len(cells) == 0 {
			t.Fatalf("%s declares no cells", id)
		}
		if err := r.RunAll(cells); err != nil {
			t.Fatalf("%s plan: %v", id, err)
		}
		warm := r.Executed()
		fig, err := r.Ablations()[id]()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(fig.Series) == 0 {
			t.Fatalf("%s produced an empty figure", id)
		}
		if got := r.Executed(); got != warm {
			t.Errorf("%s executed %d cells beyond its declared grid", id, got-warm)
		}
	}
}

// TestAblationRegistryDeclaresEveryGrid asserts every ablation is planned
// declaratively: a non-empty cell grid at default node counts, every cell
// carrying a resolvable configuration.
func TestAblationRegistryDeclaresEveryGrid(t *testing.T) {
	r := NewRunner(Quick())
	if len(AblationOrder) != 9 {
		t.Fatalf("AblationOrder has %d entries, want 9", len(AblationOrder))
	}
	for _, id := range AblationOrder {
		cells := r.AblationCellsFor(id)
		if len(cells) == 0 {
			t.Errorf("%s declares no cells", id)
		}
		for _, c := range cells {
			if _, err := r.resolve(c); err != nil && !c.LoadOnly {
				t.Errorf("%s cell %s does not resolve: %v", id, r.key(c), err)
			}
		}
	}
	if r.AblationCellsFor("ablation-nope") != nil {
		t.Error("unknown ablation returned a grid")
	}
}

// TestLoadOnlyPresetSharesFigureCell pins that a load-only cell naming a
// default-sized workload keys identically to the bare Fig 17 cell (a load
// is determined by record shape, not operation mix), while a non-default
// record size keys separately.
func TestLoadOnlyPresetSharesFigureCell(t *testing.T) {
	r := NewRunner(planCfg())
	bare := Cell{System: Cassandra, Nodes: 2, LoadOnly: true}
	preset := Cell{System: Cassandra, Nodes: 2, LoadOnly: true, Workload: "R"}
	if r.key(bare) != r.key(preset) {
		t.Fatalf("preset load-only key %q != figure load-only key %q", r.key(preset), r.key(bare))
	}
	sized := Cell{System: Cassandra, Nodes: 2, LoadOnly: true,
		Mix: ycsb.Workload{Name: "big", InsertProp: 1, FieldBytes: 200}}
	if r.key(sized) == r.key(bare) {
		t.Fatal("200-byte-field load-only cell must key separately from the default load")
	}
}

// TestLoadOnlyScenarioKeepsUnrunnableMixes: load-only grids execute no
// operations, so the scan/update support matrix must not drop their rows.
func TestLoadOnlyScenarioKeepsUnrunnableMixes(t *testing.T) {
	s := &Scenario{
		Name:     "disk",
		Systems:  []System{Voldemort, MySQL},
		LoadOnly: true,
		Workloads: []ScenarioWorkload{
			{Name: "upd200", Read: 0.5, Update: 0.5, FieldBytes: 200},
		},
		Nodes: []int{1},
	}
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("load-only grid dropped cells: %+v", cells)
	}
	for _, c := range cells {
		if !c.LoadOnly || c.Mix.FieldBytes != 200 {
			t.Fatalf("cell lost load-only shape: %+v", c)
		}
	}
}

// TestCommitlogOffVariantTakesEffect pins that commitlog=off reaches the
// store (periodic mode: writers do not wait out the batch window), rather
// than silently re-defaulting to batch mode.
func TestCommitlogOffVariantTakesEffect(t *testing.T) {
	r := NewRunner(planCfg())
	batch, err := r.Run(Cell{System: Cassandra, Nodes: 1, Workload: "RW"})
	if err != nil {
		t.Fatal(err)
	}
	periodic, err := r.Run(Cell{System: Cassandra, Nodes: 1, Workload: "RW", Variants: "commitlog=off"})
	if err != nil {
		t.Fatal(err)
	}
	if periodic.WriteLat*2 > batch.WriteLat {
		t.Errorf("periodic commit log write latency %v should be far below batch mode's %v",
			periodic.WriteLat, batch.WriteLat)
	}
}

// TestConnsVariantReachesMySQLModel pins that conns= feeds MySQL's
// per-connection server overhead (ClientThreads), not just the simulated
// client pool: fewer connections must reduce per-op overhead and with it
// read latency.
func TestConnsVariantReachesMySQLModel(t *testing.T) {
	r := NewRunner(planCfg())
	few, err := r.Run(Cell{System: MySQL, Nodes: 1, Workload: "R", Variants: "conns=4"})
	if err != nil {
		t.Fatal(err)
	}
	deflt, err := r.Run(Cell{System: MySQL, Nodes: 1, Workload: "R"}) // 128 conns
	if err != nil {
		t.Fatal(err)
	}
	if few.ReadLat >= deflt.ReadLat {
		t.Errorf("4-connection read latency %v should undercut 128-connection latency %v (per-thread overhead)",
			few.ReadLat, deflt.ReadLat)
	}
}

// TestScenarioDatasetOverrides pins the per-scenario recordsPerNode /
// repetitions overrides: validation, cell stamping, extended cache keys
// (historical keys unchanged when unset), record-count math, and the JSON
// round trip.
func TestScenarioDatasetOverrides(t *testing.T) {
	doc := `{
	  "name": "sweep",
	  "systems": ["redis"],
	  "workloads": [{"name": "R"}],
	  "nodes": [1, 2],
	  "recordsPerNode": 2000000,
	  "repetitions": 2
	}`
	s, err := ParseScenario([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded to %d cells, want 2", len(cells))
	}
	r := NewRunner(planCfg())
	for _, c := range cells {
		if c.RecordsPerNode != 2_000_000 || c.Repetitions != 2 {
			t.Fatalf("cell missing overrides: %+v", c)
		}
		k := r.key(c)
		if !strings.Contains(k, "/rpn=2000000") || !strings.Contains(k, "/reps=2") {
			t.Fatalf("override cell key %q lacks rpn/reps fragments", k)
		}
		if got := recordsFor(c, r.Cfg); got != int64(2_000_000*float64(c.Nodes)*r.Cfg.Scale) {
			t.Fatalf("recordsFor = %d for %d nodes", got, c.Nodes)
		}
		if r.repetitions(c) != 2 {
			t.Fatalf("repetitions(c) = %d, want 2", r.repetitions(c))
		}
	}
	// The same grid without overrides keeps its historical key.
	base := Cell{System: Redis, Nodes: 1, Workload: "R"}
	if k := r.key(base); strings.Contains(k, "rpn=") || strings.Contains(k, "reps=") {
		t.Fatalf("default cell key %q gained override fragments", k)
	}
	// Overrides apply on Cluster D too (per-node count replaces the fixed
	// paper total).
	d := Cell{System: Redis, Nodes: 2, Workload: "R", ClusterD: true, RecordsPerNode: 1000}
	if got, want := recordsFor(d, r.Cfg), int64(2*1000*r.Cfg.Scale); got != want {
		t.Fatalf("ClusterD override recordsFor = %d, want %d", got, want)
	}
	// Round trip preserves the overrides.
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseScenario(data)
	if err != nil {
		t.Fatalf("re-marshaled scenario does not parse: %v\n%s", err, data)
	}
	cells2, err := s2.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, cells2) {
		t.Fatalf("override cells changed across round trip:\n%+v\n%+v", cells, cells2)
	}
	// A load-only cell's result doesn't depend on repetitions: the key
	// must include the dataset override but not the repetition count.
	lo := Cell{System: Redis, Nodes: 1, LoadOnly: true, RecordsPerNode: 500, Repetitions: 3}
	if k := r.key(lo); !strings.Contains(k, "/rpn=500") || strings.Contains(k, "reps=") {
		t.Fatalf("load-only override key = %q", k)
	}
	// Negative overrides are validation errors.
	for _, bad := range []string{
		`{"name":"x","systems":["redis"],"workloads":[{"name":"R"}],"nodes":[1],"recordsPerNode":-1}`,
		`{"name":"x","systems":["redis"],"workloads":[{"name":"R"}],"nodes":[1],"repetitions":-2}`,
	} {
		if _, err := ParseScenario([]byte(bad)); err == nil {
			t.Fatalf("negative override accepted: %s", bad)
		}
	}
}

// FuzzParseScenario: ParseScenario never panics; an accepted scenario
// expands to the same cells every time, and its JSON re-encoding parses
// back to those same cells (a canonical scenario round-trips).
func FuzzParseScenario(f *testing.F) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example scenarios to seed the corpus (err %v)", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseScenario(data)
		if err != nil {
			return
		}
		cells, cerr := s.Cells()
		again, aerr := s.Cells()
		if fmt.Sprint(cerr) != fmt.Sprint(aerr) || !reflect.DeepEqual(cells, again) {
			t.Fatalf("Cells() is not deterministic:\n first: %+v (err %v)\nsecond: %+v (err %v)", cells, cerr, again, aerr)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		s2, err := ParseScenario(enc)
		if err != nil {
			t.Fatalf("accepted scenario's encoding does not re-parse: %v\n%s", err, enc)
		}
		back, berr := s2.Cells()
		if fmt.Sprint(cerr) != fmt.Sprint(berr) || !reflect.DeepEqual(cells, back) {
			t.Fatalf("cells changed across the JSON round trip:\n first: %+v (err %v)\nsecond: %+v (err %v)\n%s", cells, cerr, back, berr, enc)
		}
	})
}
