package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// The scenario layer makes the paper's parameter space — systems ×
// operation mixes × cluster sizes × tuning knobs — user-composable: a
// Scenario is a declarative JSON grid that expands into the same Cell
// values the figures and ablations plan, and executes through the same
// seeded, cached, parallel Runner.RunAll path. Anything expressible as a
// grid of cells (a paper figure, an ablation, or an experiment the paper
// never ran) is one scenario file away; see examples/scenarios/.

// ScenarioWorkload names a Table 1 preset (just "name": "R") or defines a
// custom mix. A workload with any proportion set is a custom mix: its
// proportions must sum to 1 and its name must not shadow a preset.
type ScenarioWorkload struct {
	Name string `json:"name"`
	// Operation proportions; must sum to 1 for custom mixes.
	Read   float64 `json:"read,omitempty"`
	Scan   float64 `json:"scan,omitempty"`
	Insert float64 `json:"insert,omitempty"`
	Update float64 `json:"update,omitempty"`
	// ScanLength is records per scan (default 50, the paper's).
	ScanLength int `json:"scanLength,omitempty"`
	// FieldBytes is the record's per-field payload size (default 10:
	// 75-byte records as in the paper).
	FieldBytes int `json:"fieldBytes,omitempty"`
	// Distribution selects the request distribution: "uniform" (default,
	// the paper's), "zipfian", or "latest".
	Distribution string `json:"distribution,omitempty"`
}

// custom reports whether the workload defines a mix rather than naming a
// preset.
func (w ScenarioWorkload) custom() bool {
	return w.Read != 0 || w.Scan != 0 || w.Insert != 0 || w.Update != 0 ||
		w.ScanLength != 0 || w.FieldBytes != 0 || w.Distribution != ""
}

// toWorkload resolves the entry into a validated mix.
func (w ScenarioWorkload) toWorkload() (ycsb.Workload, error) {
	if w.Name == "" {
		return ycsb.Workload{}, fmt.Errorf("harness: scenario workload needs a name")
	}
	if !w.custom() {
		return ycsb.WorkloadByName(w.Name)
	}
	if _, err := ycsb.WorkloadByName(w.Name); err == nil {
		return ycsb.Workload{}, fmt.Errorf("harness: custom workload %q shadows a Table 1 preset; pick another name", w.Name)
	}
	chooser := ycsb.Uniform
	switch w.Distribution {
	case "", "uniform":
	case "zipfian":
		chooser = ycsb.Zipfian
	case "latest":
		chooser = ycsb.Latest
	default:
		return ycsb.Workload{}, fmt.Errorf("harness: workload %s: unknown distribution %q", w.Name, w.Distribution)
	}
	scanLen := w.ScanLength
	if scanLen == 0 {
		scanLen = 50
	}
	wl := ycsb.Workload{
		Name:       w.Name,
		ReadProp:   w.Read,
		ScanProp:   w.Scan,
		InsertProp: w.Insert,
		UpdateProp: w.Update,
		ScanLength: scanLen,
		Chooser:    chooser,
		FieldBytes: w.FieldBytes,
	}
	if err := wl.Validate(); err != nil {
		return ycsb.Workload{}, err
	}
	return wl, nil
}

// Scenario is a user-defined experiment grid: the cross product of systems
// × workloads × node counts × variant combos, rendered as one figure.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Systems to benchmark (series dimension).
	Systems []System `json:"systems"`
	// Workloads to run; ignored (and optional) when LoadOnly is set.
	Workloads []ScenarioWorkload `json:"workloads,omitempty"`
	// Nodes is the cluster-size sweep (the figure's X axis).
	Nodes []int `json:"nodes"`
	// Cluster picks the hardware: "M" (default, memory-bound) or "D"
	// (disk-bound).
	Cluster string `json:"cluster,omitempty"`
	// Variants are deployment-option combos, one series per combo; each
	// entry is an ordered "key=value,key=value" string (see the variant
	// vocabulary in systems.go). An empty entry is the paper's defaults,
	// and an empty list means just the defaults.
	Variants []string `json:"variants,omitempty"`
	// LoadOnly deploys and loads without running workloads (disk-usage
	// experiments).
	LoadOnly bool `json:"loadOnly,omitempty"`
	// Metric selects the figure's Y value: "throughput" (default),
	// "read-latency", "write-latency", "scan-latency", "update-latency",
	// or "disk" (implied by LoadOnly).
	Metric string `json:"metric,omitempty"`
	// RecordsPerNode overrides the runner's pre-scale per-node dataset
	// size for every cell in the grid (0 keeps the config's, the paper's
	// 10M). Overridden cells cache and seed under extended keys, so they
	// never collide with figure cells.
	RecordsPerNode int64 `json:"recordsPerNode,omitempty"`
	// Repetitions overrides how many independent seeds average into each
	// measured cell (0 keeps the config's; the paper reports the average
	// of at least 3 executions).
	Repetitions int `json:"repetitions,omitempty"`
	// Faults injects a fault schedule into every cell of the grid. Window
	// bounds are fractions of the run (warmup+measure), so one schedule
	// works at paper and quick fidelity alike. Faulted cells cache and
	// seed under extended keys and report per-window recovery curves in
	// the figure appendix.
	Faults []ScenarioFault `json:"faults,omitempty"`
	// Queries declares an analytic dashboard mix (internal/query): the grid
	// then measures query cells — per-metric range scans piped through
	// filter/group-by/aggregate operators over the time-ordered APM
	// measurement grid — instead of YCSB operation cells. Mutually
	// exclusive with workloads, loadOnly and faults; systems without scan
	// support (Voldemort) are skipped like scan workloads.
	Queries []query.Spec `json:"queries,omitempty"`
	// Hardware, when set, overrides every cell's cluster hardware with a
	// custom spec (unset fields inherit the base template). Overridden
	// cells cache and seed under extended keys, so they never collide with
	// figure cells.
	Hardware *ScenarioHardware `json:"hardware,omitempty"`
}

// ScenarioHardware is a custom cluster spec in scenario JSON: a named
// hardware profile starting from a base template ("M" default, or "D")
// with any subset of knobs overridden. It maps onto cluster.Spec — the
// same struct the paper presets use — so a custom profile flows through
// deployment, scaling and cache keys exactly like Cluster M/D.
type ScenarioHardware struct {
	Name string `json:"name"`
	// Base picks the template supplying unset fields: "M" (default) or "D".
	Base string `json:"base,omitempty"`
	// Node knobs (zero = inherit the base template's value).
	Cores      int     `json:"cores,omitempty"`
	RAMGB      float64 `json:"ramGB,omitempty"`
	Disks      int     `json:"disks,omitempty"`
	DiskSeekMs float64 `json:"diskSeekMs,omitempty"`
	DiskMBps   float64 `json:"diskMBps,omitempty"`
	DiskGB     float64 `json:"diskGB,omitempty"`
	// Network knobs.
	NetLatencyUs float64 `json:"netLatencyUs,omitempty"`
	NetMBps      float64 `json:"netMBps,omitempty"`
}

// toSpec resolves the profile into a full cluster.Spec (Nodes left zero:
// the cell's node count wins, as with any Spec override).
func (h *ScenarioHardware) toSpec() (cluster.Spec, error) {
	if h.Name == "" {
		return cluster.Spec{}, fmt.Errorf("harness: scenario hardware needs a name")
	}
	var s cluster.Spec
	switch h.Base {
	case "", "M":
		s = cluster.ClusterM(0)
	case "D":
		s = cluster.ClusterD(0)
	default:
		return cluster.Spec{}, fmt.Errorf("harness: scenario hardware %s: unknown base %q (want M or D)", h.Name, h.Base)
	}
	s.Name = h.Name
	for _, k := range []struct {
		name string
		v    float64
	}{
		{"cores", float64(h.Cores)}, {"ramGB", h.RAMGB}, {"disks", float64(h.Disks)},
		{"diskSeekMs", h.DiskSeekMs}, {"diskMBps", h.DiskMBps}, {"diskGB", h.DiskGB},
		{"netLatencyUs", h.NetLatencyUs}, {"netMBps", h.NetMBps},
	} {
		if k.v < 0 {
			return cluster.Spec{}, fmt.Errorf("harness: scenario hardware %s: negative %s", h.Name, k.name)
		}
	}
	if h.Cores > 0 {
		s.Node.Cores = h.Cores
	}
	if h.RAMGB > 0 {
		s.Node.RAMBytes = int64(h.RAMGB * float64(1<<30))
	}
	if h.Disks > 0 {
		s.Node.Disks = h.Disks
	}
	if h.DiskSeekMs > 0 {
		s.Node.DiskSeek = sim.Time(h.DiskSeekMs * float64(sim.Millisecond))
	}
	if h.DiskMBps > 0 {
		s.Node.DiskMBps = h.DiskMBps
	}
	if h.DiskGB > 0 {
		s.Node.DiskBytes = int64(h.DiskGB * float64(1<<30))
	}
	if h.NetLatencyUs > 0 {
		s.Net.BaseLatency = sim.Time(h.NetLatencyUs * float64(sim.Microsecond))
	}
	if h.NetMBps > 0 {
		s.Net.MBps = h.NetMBps
	}
	return s, nil
}

// ScenarioFault is one fault event: "kill-node", "restart-node",
// "slow-node", "replica-lag", or "compaction-storm" against one node, over
// a virtual-time window given as fractions of the whole run.
type ScenarioFault struct {
	Kind string `json:"kind"`
	Node int    `json:"node"`
	// Start and End bound the fault window as fractions of warmup+measure
	// in [0,1]. End <= Start means the fault does not end (a kill-node
	// never restarts; a windowed fault runs to the end of the run).
	Start float64 `json:"start"`
	End   float64 `json:"end,omitempty"`
	// Factor parameterizes the fault kind: slowdown multiplier for
	// slow-node (default 4), extra lag in milliseconds for replica-lag
	// (default 50), concurrent flows for compaction-storm (default 2).
	Factor float64 `json:"factor,omitempty"`
}

// schedule converts the scenario's fault list into a validated schedule.
func (s *Scenario) schedule() (fault.Schedule, error) {
	if len(s.Faults) == 0 {
		return nil, nil
	}
	sched := make(fault.Schedule, len(s.Faults))
	for i, f := range s.Faults {
		sched[i] = fault.Event{
			Kind:   fault.Kind(f.Kind),
			Node:   f.Node,
			Start:  f.Start,
			End:    f.End,
			Factor: f.Factor,
		}
	}
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("harness: scenario %s: %w", s.Name, err)
	}
	return sched, nil
}

// scenarioMetrics maps metric names to extractors and Y-axis labels.
var scenarioMetrics = map[string]struct {
	m      metric
	yLabel string
}{
	"throughput":     {throughputMetric, "ops/sec"},
	"read-latency":   {readLatMetric, "ms"},
	"write-latency":  {writeLatMetric, "ms"},
	"scan-latency":   {scanLatMetric, "ms"},
	"update-latency": {func(r CellResult) float64 { return latencyMs(r.UpdateLat) }, "ms"},
	"disk":           {diskMetric, "GB (paper scale)"},
}

// ParseScenario decodes and validates a scenario file. Unknown JSON fields
// are errors, so a typo cannot silently drop a grid axis.
func ParseScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("harness: scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the grid's shape; per-cell semantics (variant vocabulary
// per system) surface when the cells run.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("harness: scenario needs a name")
	}
	if len(s.Systems) == 0 {
		return fmt.Errorf("harness: scenario %s lists no systems", s.Name)
	}
	for _, sys := range s.Systems {
		known := false
		for _, k := range AllSystems {
			if sys == k {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("harness: scenario %s: unknown system %q", s.Name, sys)
		}
	}
	if len(s.Nodes) == 0 {
		return fmt.Errorf("harness: scenario %s lists no node counts", s.Name)
	}
	for _, n := range s.Nodes {
		if n < 1 {
			return fmt.Errorf("harness: scenario %s: node count %d < 1", s.Name, n)
		}
	}
	if !s.LoadOnly && len(s.Workloads) == 0 && len(s.Queries) == 0 {
		return fmt.Errorf("harness: scenario %s lists no workloads (set loadOnly for load-only grids, or queries for analytic grids)", s.Name)
	}
	if len(s.Queries) > 0 {
		if len(s.Workloads) > 0 {
			return fmt.Errorf("harness: scenario %s: queries and workloads are mutually exclusive", s.Name)
		}
		if s.LoadOnly {
			return fmt.Errorf("harness: scenario %s: queries need a measured run, not loadOnly", s.Name)
		}
		if len(s.Faults) > 0 {
			return fmt.Errorf("harness: scenario %s: faults apply to workload grids, not query grids", s.Name)
		}
		switch s.Metric {
		case "", "throughput", "scan-latency":
		default:
			return fmt.Errorf("harness: scenario %s: query grids measure throughput or scan-latency, not %q", s.Name, s.Metric)
		}
		if _, err := s.queryMix(); err != nil {
			return err
		}
	}
	if s.Hardware != nil {
		if _, err := s.Hardware.toSpec(); err != nil {
			return err
		}
	}
	for _, w := range s.Workloads {
		if _, err := w.toWorkload(); err != nil {
			return err
		}
	}
	switch s.Cluster {
	case "", "M", "D":
	default:
		return fmt.Errorf("harness: scenario %s: unknown cluster %q (want M or D)", s.Name, s.Cluster)
	}
	for _, v := range s.Variants {
		if _, err := parseVariants(v); err != nil {
			return err
		}
	}
	if s.Metric != "" {
		if _, ok := scenarioMetrics[s.Metric]; !ok {
			return fmt.Errorf("harness: scenario %s: unknown metric %q", s.Name, s.Metric)
		}
	}
	if s.LoadOnly && s.Metric != "" && s.Metric != "disk" {
		return fmt.Errorf("harness: scenario %s: loadOnly grids only measure the disk metric", s.Name)
	}
	if s.RecordsPerNode < 0 {
		return fmt.Errorf("harness: scenario %s: negative recordsPerNode %d", s.Name, s.RecordsPerNode)
	}
	if s.Repetitions < 0 {
		return fmt.Errorf("harness: scenario %s: negative repetitions %d", s.Name, s.Repetitions)
	}
	if _, err := s.schedule(); err != nil {
		return err
	}
	if len(s.Faults) > 0 {
		if s.LoadOnly {
			return fmt.Errorf("harness: scenario %s: faults need a measured run, not loadOnly", s.Name)
		}
		// The target selector is per-cell node index; every grid size must
		// contain the targeted nodes.
		for _, f := range s.Faults {
			for _, n := range s.Nodes {
				if f.Node >= n {
					return fmt.Errorf("harness: scenario %s: fault %s targets node %d but the grid includes %d-node clusters", s.Name, f.Kind, f.Node, n)
				}
			}
		}
	}
	return nil
}

// queryMix normalizes a copy of the scenario's query specs into a mix.
func (s *Scenario) queryMix() (query.Mix, error) {
	m := make(query.Mix, len(s.Queries))
	copy(m, s.Queries)
	if err := m.Normalize(); err != nil {
		return nil, fmt.Errorf("harness: scenario %s: %w", s.Name, err)
	}
	return m, nil
}

// grid expands the scenario into one series per system × workload ×
// variant combo, node counts on the X axis, skipping (system, workload)
// pairs the system cannot run (e.g. scan mixes on Voldemort), mirroring
// how the paper's scan figures exclude it. Skipped pairs are reported so a
// scenario author sees the holes.
func (s *Scenario) grid() (grid, []string, error) {
	name := s.Metric
	if name == "" {
		name = "throughput"
		if s.LoadOnly {
			name = "disk"
		}
	}
	m := scenarioMetrics[name]
	title := s.Name
	if s.Description != "" {
		title += ": " + s.Description
	}
	g := grid{fig: Figure{ID: "scenario-" + s.Name, Title: title, XLabel: "nodes", YLabel: m.yLabel}}
	workloads := s.Workloads
	if s.LoadOnly && len(workloads) == 0 {
		workloads = []ScenarioWorkload{{}}
	}
	sched, err := s.schedule()
	if err != nil {
		return grid{}, nil, err
	}
	var faults string
	if sched != nil {
		faults = sched.String()
	}
	var hw cluster.Spec
	if s.Hardware != nil {
		hw, err = s.Hardware.toSpec()
		if err != nil {
			return grid{}, nil, err
		}
	}
	variants := s.Variants
	if len(variants) == 0 {
		variants = []string{""}
	}
	// An analytic grid is one pseudo-workload per system: every cell
	// carries the whole mix's canonical encoding (the mix is weighted
	// within a cell, like an operation mix — not one series per query),
	// and systems without scan support are skipped like scan workloads.
	var queries string
	if len(s.Queries) > 0 {
		mix, err := s.queryMix()
		if err != nil {
			return grid{}, nil, err
		}
		queries = mix.String()
		workloads = []ScenarioWorkload{{Name: "queries"}}
	}
	var skipped []string
	for _, sys := range s.Systems {
		for _, sw := range workloads {
			var wl ycsb.Workload
			preset := false
			if queries != "" {
				if !SupportsScans(sys) {
					skipped = append(skipped, fmt.Sprintf("%s/queries", sys))
					continue
				}
			} else if sw.Name != "" || !s.LoadOnly {
				var err error
				wl, err = sw.toWorkload()
				if err != nil {
					return grid{}, nil, err
				}
				preset = !sw.custom()
				// A load-only cell executes no operations — its workload
				// only picks the record size — so the scan/update support
				// matrix applies to measured grids only.
				if !s.LoadOnly && !SupportsWorkload(sys, wl) {
					skipped = append(skipped, fmt.Sprintf("%s/%s", sys, wl.Name))
					continue
				}
			}
			for _, v := range variants {
				spec := series{label: seriesLabel(sys, sw.Name, v), ys: perCell(m.m)}
				for _, n := range s.Nodes {
					c := Cell{
						System:         sys,
						Nodes:          n,
						ClusterD:       s.Cluster == "D",
						Spec:           hw,
						Variants:       v,
						LoadOnly:       s.LoadOnly,
						RecordsPerNode: s.RecordsPerNode,
						Repetitions:    s.Repetitions,
						Faults:         faults,
						Queries:        queries,
					}
					if preset {
						c.Workload = wl.Name
					} else if sw.Name != "" {
						c.Mix = wl
					}
					spec.cells = append(spec.cells, c)
					spec.xs = append(spec.xs, float64(n))
				}
				g.series = append(g.series, spec)
			}
		}
	}
	return g, skipped, nil
}

func seriesLabel(sys System, workload, variants string) string {
	label := string(sys)
	if workload != "" {
		label += "/" + workload
	}
	if variants != "" {
		label += "/" + variants
	}
	return label
}

// Cells returns every cell the scenario measures, in grid order, each
// once, with unsupported (system, workload) pairs skipped.
func (s *Scenario) Cells() ([]Cell, error) {
	g, _, err := s.grid()
	return g.cells(), err
}

// RunScenario executes the scenario's grid on the worker pool (cached,
// seeded, deduplicated like any figure plan) and assembles the figure: one
// series per system × workload × variant combo, node counts on the X axis.
func (r *Runner) RunScenario(s *Scenario) (Figure, error) {
	if err := s.Validate(); err != nil {
		return Figure{}, err
	}
	g, skipped, err := s.grid()
	if err != nil {
		return Figure{}, err
	}
	if len(g.series) == 0 {
		return Figure{}, fmt.Errorf("harness: scenario %s has no runnable cells (skipped: %v)", s.Name, skipped)
	}
	for _, sk := range skipped {
		r.emit(fmt.Sprintf("%-10s skipped: workload not supported", sk))
	}
	fig, err := r.assemble(g, "scenario "+s.Name)
	if err != nil {
		return Figure{}, err
	}
	if len(s.Faults) > 0 {
		appendix, err := r.faultAppendix(g.series)
		if err != nil {
			return Figure{}, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		fig.Appendix = appendix
	}
	return fig, nil
}

// faultAppendix renders each faulted cell's recovery curve: one row per
// measurement window with throughput, tail latency and availability, so a
// node-kill scenario shows the dip and the post-restart recovery (including
// the modeled replay cost) without leaving the text figure.
func (r *Runner) faultAppendix(specs []series) (string, error) {
	var b strings.Builder
	for _, spec := range specs {
		for _, c := range spec.cells {
			res, err := r.Run(c) // cache hit: RunAll already measured it
			if err != nil {
				return "", err
			}
			w := res.Windows
			if w == nil || w.Windows() == 0 {
				continue
			}
			fmt.Fprintf(&b, "\nrecovery curve: %s n=%d {%s}\n", spec.label, c.Nodes, c.Faults)
			fmt.Fprintf(&b, "%8s %12s %10s %10s %8s\n", "t(s)", "ops/s", "p99(ms)", "p999(ms)", "avail")
			for i := 0; i < w.Windows(); i++ {
				fmt.Fprintf(&b, "%8.2f %12.0f %10.3f %10.3f %8.3f\n",
					(w.WindowStart(i) - w.Start()).Seconds(),
					w.Throughput(i),
					w.Quantile(i, 0.99).Seconds()*1e3,
					w.Quantile(i, 0.999).Seconds()*1e3,
					w.Availability(i))
			}
		}
	}
	return b.String(), nil
}
