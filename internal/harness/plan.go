package harness

import "fmt"

// The planning layer: every figure, ablation and scenario is declared
// once, as a grid — an ordered list of labelled series, each holding its
// cells, the X value of each point and how the points' Y values are read
// from the cells' results. The plan (every series' cells, flattened and
// deduplicated) and the figure (every series' points) both derive from
// that one list, so they cannot disagree: the execution layer
// (Runner.RunAll) schedules the plan across workers, and assembly
// afterwards reads a warm cache. Order-independent seeding
// (Runner.cellSeed) is what makes this split sound — a planned parallel
// schedule and a one-at-a-time schedule produce bit-identical results.

// series is one labelled line of a grid. ys maps the results of cells (in
// order) to one Y per X; most series read each cell through a metric
// (perCell), Figs 15/16 normalise to their base cell, and Fig 17's
// raw-data line has no cells at all.
type series struct {
	label string
	cells []Cell
	xs    []float64
	ys    func(res []CellResult) []float64
}

// perCell reads one Y per cell through m.
func perCell(m metric) func([]CellResult) []float64 {
	return func(res []CellResult) []float64 {
		ys := make([]float64, len(res))
		for i, r := range res {
			ys[i] = m(r)
		}
		return ys
	}
}

// overNodes sweeps c over the configured node counts that keep accepts
// (all of them when keep is nil), reading each point through m.
func overNodes(cfg Config, label string, c Cell, m metric, keep func(int) bool) series {
	s := series{label: label, ys: perCell(m)}
	for _, n := range cfg.NodeCounts {
		if keep != nil && !keep(n) {
			continue
		}
		c.Nodes = n
		s.cells = append(s.cells, c)
		s.xs = append(s.xs, float64(n))
	}
	return s
}

// grid is one figure, ablation or scenario: the figure's labels (Series
// left empty) and its ordered series.
type grid struct {
	fig    Figure
	series []series
}

// cells is the grid's plan: every series' cells, each once, in
// first-occurrence order. A TargetFraction cell's series lists its base
// cell first, so the plan is dependency-ordered.
func (g grid) cells() []Cell {
	var plan []Cell
	seen := map[Cell]bool{}
	for _, s := range g.series {
		for _, c := range s.cells {
			if !seen[c] {
				seen[c] = true
				plan = append(plan, c)
			}
		}
	}
	return plan
}

// assemble executes the grid's plan on the worker pool and builds its
// figure from the warm cache; name prefixes a plan failure.
func (r *Runner) assemble(g grid, name string) (Figure, error) {
	if err := r.RunAll(g.cells()); err != nil {
		return Figure{}, fmt.Errorf("%s: %w", name, err)
	}
	fig := g.fig
	for _, s := range g.series {
		res := make([]CellResult, len(s.cells))
		for i, c := range s.cells {
			var err error
			if res[i], err = r.Run(c); err != nil { // cache hit after RunAll
				return Figure{}, fmt.Errorf("%s: cell %s: %w", name, r.key(c), err)
			}
		}
		fig.Series = append(fig.Series, Series{Label: s.label, X: s.xs, Y: s.ys(res)})
	}
	return fig, nil
}

// entry registers a figure or ablation: its id and its grid at a config.
type entry struct {
	id   string
	grid func(cfg Config) grid
}

func lookup(entries []entry, id string) (entry, bool) {
	for _, e := range entries {
		if e.id == id {
			return e, true
		}
	}
	return entry{}, false
}

func entryIDs(entries []entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.id
	}
	return out
}

// planOf is the plan of the entry named id at the runner's config, nil
// for unknown ids.
func (r *Runner) planOf(entries []entry, id string) []Cell {
	if e, ok := lookup(entries, id); ok {
		return e.grid(r.Cfg).cells()
	}
	return nil
}

// generators maps each entry's id to a function assembling its grid at
// the runner's config; prefix names a figure in errors.
func (r *Runner) generators(entries []entry, prefix string) map[string]func() (Figure, error) {
	gens := make(map[string]func() (Figure, error), len(entries))
	for _, e := range entries {
		gens[e.id] = func() (Figure, error) { return r.assemble(e.grid(r.Cfg), prefix+e.id) }
	}
	return gens
}

// --- The paper's figures (§5–§6) ---

// boundedNodes and clusterDNodes are the fixed cluster sizes of the
// bounded-throughput (Figs 15/16) and Cluster D (Figs 18-20) experiments.
const (
	boundedNodes  = 8
	clusterDNodes = 8
)

// boundedSystems are the systems in the bounded-throughput experiment
// (§5.6 dropped VoltDB for its prohibitive multi-node latency).
var boundedSystems = []System{Cassandra, HBase, Voldemort, MySQL, Redis}

// boundedFractions are the load levels of Figs 15/16.
var boundedFractions = []float64{0.50, 0.60, 0.70, 0.80, 0.90, 0.95}

// clusterDWorkloads are the Cluster D bar-chart workloads, in X order.
var clusterDWorkloads = []string{"R", "RW", "W"}

// figureGrids lists every regenerated figure in paper order.
var figureGrids = []entry{
	sweep("3", "Throughput for Workload R", "ops/sec", "R", AllSystems, throughputMetric),
	sweep("4", "Read latency for Workload R", "ms", "R", AllSystems, readLatMetric),
	sweep("5", "Write latency for Workload R", "ms", "R", AllSystems, writeLatMetric),
	sweep("6", "Throughput for Workload RW", "ops/sec", "RW", AllSystems, throughputMetric),
	sweep("7", "Read latency for Workload RW", "ms", "RW", AllSystems, readLatMetric),
	sweep("8", "Write latency for Workload RW", "ms", "RW", AllSystems, writeLatMetric),
	sweep("9", "Throughput for Workload W", "ops/sec", "W", AllSystems, throughputMetric),
	sweep("10", "Read latency for Workload W", "ms", "W", AllSystems, readLatMetric),
	sweep("11", "Write latency for Workload W", "ms", "W", AllSystems, writeLatMetric),
	sweep("12", "Throughput for Workload RS", "ops/sec", "RS", ScanSystems, throughputMetric),
	sweep("13", "Scan latency for Workload RS", "ms", "RS", ScanSystems, scanLatMetric),
	sweep("14", "Throughput for Workload RSW", "ops/sec", "RSW", ScanSystems, throughputMetric),
	bounded("15", "Read latency for bounded throughput on Workload R", readLatMetric),
	bounded("16", "Write latency for bounded throughput on Workload R", writeLatMetric),
	{"17", diskUsage},
	clusterD("18", "Throughput for 8 nodes in Cluster D", "ops/sec", throughputMetric),
	clusterD("19", "Read latency for 8 nodes in Cluster D", "ms", readLatMetric),
	clusterD("20", "Write latency for 8 nodes in Cluster D", "ms", writeLatMetric),
}

// sweep is one series per system over the node counts, on one workload.
func sweep(id, title, yLabel, wl string, systems []System, m metric) entry {
	return entry{id, func(cfg Config) grid {
		g := grid{fig: Figure{ID: id, Title: title, XLabel: "nodes", YLabel: yLabel}}
		for _, sys := range systems {
			g.series = append(g.series, overNodes(cfg, string(sys), Cell{System: sys, Workload: wl}, m, nil))
		}
		return g
	}}
}

// bounded is latency at fractions of maximum throughput on 8 nodes,
// normalized to the latency at 100% load (x100).
func bounded(id, title string, m metric) entry {
	return entry{id, func(Config) grid {
		g := grid{fig: Figure{ID: id, Title: title, XLabel: "% of max tput", YLabel: "latency normalized to max-load (=100)"}}
		for _, sys := range boundedSystems {
			base := Cell{System: sys, Nodes: boundedNodes, Workload: "R"}
			s := series{label: string(sys), cells: []Cell{base}, ys: func(res []CellResult) []float64 {
				full := m(res[0])
				var ys []float64
				for _, r := range res[1:] {
					norm := 0.0
					if full > 0 {
						norm = 100 * m(r) / full
					}
					ys = append(ys, norm)
				}
				return append(ys, 100)
			}}
			for _, f := range boundedFractions {
				c := base
				c.TargetFraction = f
				s.cells = append(s.cells, c)
				s.xs = append(s.xs, f*100)
			}
			s.xs = append(s.xs, 100)
			g.series = append(g.series, s)
		}
		return g
	}}
}

// diskUsage is "Disk usage for 10 million records" (Fig 17), in
// paper-scale GB, including the raw-data reference line.
func diskUsage(cfg Config) grid {
	g := grid{fig: Figure{ID: "17", Title: "Disk usage for 10 million records per node", XLabel: "nodes", YLabel: "GB"}}
	for _, sys := range DiskSystems {
		g.series = append(g.series, overNodes(cfg, string(sys), Cell{System: sys, LoadOnly: true}, diskMetric, nil))
	}
	raw := series{label: "raw data"}
	var ys []float64
	for _, n := range cfg.NodeCounts {
		raw.xs = append(raw.xs, float64(n))
		ys = append(ys, float64(cfg.RecordsPerNode*int64(n))*70/1e9)
	}
	raw.ys = func([]CellResult) []float64 { return ys }
	g.series = append(g.series, raw)
	return g
}

// clusterD is a Cluster D bar chart (Figs 18-20): 8 nodes, workloads
// R/RW/W as X = 1/2/3.
func clusterD(id, title, yLabel string, m metric) entry {
	return entry{id, func(Config) grid {
		g := grid{fig: Figure{ID: id, Title: title, XLabel: "workload#", YLabel: yLabel + " [x=1:R 2:RW 3:W]"}}
		for _, sys := range ClusterDSystems {
			s := series{label: string(sys), ys: perCell(m)}
			for i, wl := range clusterDWorkloads {
				s.cells = append(s.cells, Cell{System: sys, Nodes: clusterDNodes, Workload: wl, ClusterD: true})
				s.xs = append(s.xs, float64(i+1))
			}
			g.series = append(g.series, s)
		}
		return g
	}}
}

// FigureOrder lists figure IDs in paper order.
var FigureOrder = entryIDs(figureGrids)

// CellsFor returns every cell figure id measures, dependency-ordered: a
// TargetFraction cell appears after the unthrottled base cell it is
// normalized against, so RunAll resolves the throttle target from the warm
// cache. Unknown ids return nil.
func (r *Runner) CellsFor(id string) []Cell { return r.planOf(figureGrids, id) }

// Figures maps figure IDs to their generators. Each generator plans its
// grid, executes it on the worker pool, and assembles the figure from the
// warm cache.
func (r *Runner) Figures() map[string]func() (Figure, error) {
	return r.generators(figureGrids, "fig ")
}

// AblationOrder lists ablation IDs in display order.
var AblationOrder = entryIDs(ablationGrids)

// AblationCellsFor returns every cell the named ablation measures, nil for
// unknown names.
func (r *Runner) AblationCellsFor(id string) []Cell { return r.planOf(ablationGrids, id) }

// Ablations maps ablation IDs to their generators, like Figures.
func (r *Runner) Ablations() map[string]func() (Figure, error) {
	return r.generators(ablationGrids, "")
}

// Prewarm plans and executes the given figures' and ablations' cells
// through the worker pool in one batch, deduplicating cells shared between
// them (e.g. Figs 3/4/5 plot the same runs, and an ablation's
// paper-default series reuses figure cells); subsequent figure or ablation
// generation then reads entirely from the warm cache.
func (r *Runner) Prewarm(ids ...string) error {
	var cells []Cell
	for _, id := range ids {
		e, ok := lookup(figureGrids, id)
		if !ok {
			if e, ok = lookup(ablationGrids, id); !ok {
				return fmt.Errorf("harness: unknown figure %q", id)
			}
		}
		cells = append(cells, e.grid(r.Cfg).cells()...)
	}
	return r.RunAll(cells)
}
