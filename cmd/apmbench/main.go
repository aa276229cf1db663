// Command apmbench regenerates the paper's evaluation: every figure
// (Figs 3–20) and Table 1, printed as text tables with the same series the
// paper plots.
//
// Usage:
//
//	apmbench -figure 3              # one figure
//	apmbench -figure all            # everything (takes a while)
//	apmbench -figure table1         # the workload table
//	apmbench -figure ablation-all   # design-choice ablations
//	apmbench -figure apm-dashboard  # analytic query layer (APM read path)
//	apmbench -scenario grid.json    # a user-defined scenario grid
//	apmbench -scale 0.02 -measure 4 # higher fidelity
//	apmbench -parallel 1            # serial cell execution
//	apmbench -figure 3 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	                                # host-side profiling (see README
//	                                # "Profiling": the scale=1 recipe)
//	apmbench -serve :9090 ...       # coordinate: lease cells to workers
//	apmbench -join host:9090        # work: execute leased cells
//	apmbench -cache dir ...         # persistent result cache
//	apmbench -version               # print the model hash and exit
//
// A scenario file declares a grid — systems × workloads (Table 1 presets
// or custom mixes, any record size) × node counts × deployment variants —
// and runs through the same cached, seeded, parallel cell executor as the
// figures; see examples/scenarios/.
//
// The -scale flag multiplies record counts and node RAM/disk together, so
// memory-vs-disk behaviour matches the paper at any scale; see DESIGN.md.
//
// Cells execute on a worker pool (-parallel, default GOMAXPROCS). Each
// cell's seed derives from the seed plus the cell's identity, so output is
// bit-identical at any parallelism and any figure order; each in-flight
// cell holds a full simulated cluster, so lower -parallel if memory is
// tight at large -scale.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/sim"
)

func main() {
	var (
		figure     = flag.String("figure", "all", "figure id (3..20), 'table1', 'all', or an ablation name (see -list)")
		scale      = flag.Float64("scale", 0.01, "record-count and hardware scale factor")
		measure    = flag.Float64("measure", 2.0, "measurement window, virtual seconds")
		warmup     = flag.Float64("warmup", 0.5, "warmup, virtual seconds")
		seed       = flag.Int64("seed", 42, "simulation seed")
		nodes      = flag.String("nodes", "1,2,4,8,12", "comma-separated node counts")
		list       = flag.Bool("list", false, "list available figures and exit")
		quiet      = flag.Bool("quiet", false, "suppress per-cell progress output")
		format     = flag.String("format", "table", "output format: table or csv")
		explain    = flag.String("explain", "", "diagnose one cell: system:nodes:workload[:D], e.g. cassandra:4:R or hbase:8:W:D")
		quick      = flag.Bool("quick", false, "quick-fidelity preset: scale 0.001, measure 0.3, warmup 0.1, nodes 1,2,4 (explicit flags still win)")
		reps       = flag.Int("reps", 1, "independent executions to average per cell")
		parallel   = flag.Int("parallel", 0, "concurrent cell executions (0 = GOMAXPROCS, 1 = serial)")
		scenario   = flag.String("scenario", "", "run a scenario grid from a JSON file (see examples/scenarios/)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof allocation profile to this file at exit")
		memstats   = flag.Bool("memstats", false, "report retained host memory (heap in use + store slab bytes) to stderr after each cell's load phase")
		serve      = flag.String("serve", "", "coordinate a cell farm: listen on this address (e.g. :9090) and lease cells to joined workers instead of executing locally")
		join       = flag.String("join", "", "join a cell farm as a worker: connect to this coordinator address, execute leased cells, exit when drained (reconnects on connection loss)")
		cacheDir   = flag.String("cache", "", "persistent result cache directory: serve hits instead of executing, keyed by config + cell + model version")
		leaseTO    = flag.Duration("lease-timeout", 0, "with -serve: requeue a leased cell unanswered for this long and dock the worker's capacity (0 = auto-scale to cell fidelity)")
		speculate  = flag.Bool("speculate", true, "with -serve: re-lease the slowest outstanding cells to idle workers when the queue is empty; duplicate results are byte-compared")
		cacheMax   = flag.Int64("cache-max-bytes", 0, "with -cache: evict least-recently-used entries to keep the directory under this many bytes (0 = unbounded)")
		version    = flag.Bool("version", false, "print the model version (content hash of the model sources) and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(repro.ModelVersion())
		return
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *join != "" {
		runWorker(*join, *parallel, *cacheDir, *cacheMax)
		return
	}

	if *quick {
		// The CI determinism gate and the verify recipe share this preset;
		// flags the user set explicitly keep their values.
		if !set["scale"] {
			*scale = 0.001
		}
		if !set["measure"] {
			*measure = 0.3
		}
		if !set["warmup"] {
			*warmup = 0.1
		}
		if !set["nodes"] {
			*nodes = "1,2,4"
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
			os.Exit(2)
		}
		// Flushed on the normal exit path below; error paths os.Exit and
		// deliberately drop the partial profile.
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
			}
		}()
	}

	nodeCounts, err := parseNodes(*nodes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
		os.Exit(2)
	}
	cfg := harness.Config{
		Scale:       *scale,
		Measure:     sim.Time(*measure * float64(sim.Second)),
		Warmup:      sim.Time(*warmup * float64(sim.Second)),
		Seed:        *seed,
		NodeCounts:  nodeCounts,
		Repetitions: *reps,
	}
	outputFormat = *format
	r := harness.NewRunner(cfg)
	r.Workers = *parallel
	if !*quiet {
		r.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	if *cacheDir != "" {
		fc, err := farm.NewFileCache(*cacheDir, repro.ModelVersion())
		if err != nil {
			fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
			os.Exit(2)
		}
		fc.MaxBytes = *cacheMax
		fc.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
		r.Cache = fc
		// The warm-cache CI gate greps this line: a second identical run
		// must show executed=0. Printed only when -cache is given, so
		// cacheless runs keep byte-identical stderr; the put-errors field
		// appears only when a write actually failed, so healthy runs keep
		// the exact historical format.
		defer func() {
			line := fmt.Sprintf("cache: hits=%d executed=%d", r.CacheHits(), r.Executed())
			if n := fc.PutErrors(); n > 0 {
				line += fmt.Sprintf(" put-errors=%d", n)
			}
			fmt.Fprintln(os.Stderr, line)
		}()
	}
	if *serve != "" {
		co := farm.NewCoordinator(cfg, repro.ModelVersion())
		co.LeaseTimeout = *leaseTO
		co.Speculate = *speculate
		if _, err := co.Listen(*serve); err != nil {
			fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
			os.Exit(2)
		}
		r.Executor = co
		// Dispatch width: RunAll's pool drives how many cells are leased
		// out at once, and the coordinator itself does no cell work, so an
		// unset -parallel widens to cover several multi-slot workers
		// rather than this host's core count.
		if !set["parallel"] {
			r.Workers = 64
		}
		// Drain on the way out so workers exit cleanly. A non-nil Close
		// error is a cross-worker divergence the farm detected: the output
		// cannot be trusted, so fail loudly instead of exiting 0.
		defer func() {
			if err := co.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
				os.Exit(1)
			}
		}()
	}
	if *memstats {
		// Diagnostics only: heap numbers vary with GC timing and
		// -parallel width, so they go to stderr and the determinism
		// gate runs without the flag. Figure output on stdout is
		// unaffected.
		r.MemStats = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	if *list {
		fmt.Println("figures: table1", strings.Join(harness.FigureOrder, " "))
		fmt.Println("ablations:", strings.Join(harness.AblationOrder, " "))
		fmt.Println("extras: apm-dashboard")
		return
	}

	if *explain != "" {
		runExplain(r, *explain)
		return
	}

	if *scenario != "" {
		runScenario(r, *scenario)
		return
	}

	switch *figure {
	case "table1":
		fmt.Print(harness.Table1())
	case "all":
		fmt.Print(harness.Table1())
		fmt.Println()
		// Plan every figure's cells and execute them as one batch: cells
		// shared between figures (e.g. Figs 3/4/5) run once, and the
		// worker pool sees the widest possible schedule. Figure
		// generation below then reads from the warm cache.
		if err := r.Prewarm(harness.FigureOrder...); err != nil {
			fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
			os.Exit(1)
		}
		for _, id := range harness.FigureOrder {
			runFigure(r, id, false)
			fmt.Println()
		}
	case "ablation-all":
		// Plan every ablation's cells as one batch: cells shared between
		// ablations (and with any already-cached figure cells) run once,
		// and the worker pool sees the widest possible schedule.
		if err := r.Prewarm(harness.AblationOrder...); err != nil {
			fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
			os.Exit(1)
		}
		for _, name := range harness.AblationOrder {
			runFigure(r, name, true)
			fmt.Println()
		}
	default:
		if *figure == "apm-dashboard" {
			// The analytic-read extra: a built-in query scenario, kept out
			// of FigureOrder so `-figure all` output stays byte-stable.
			fig, err := r.RunScenario(harness.APMDashboard(r.Cfg.NodeCounts))
			if err != nil {
				fmt.Fprintf(os.Stderr, "apmbench: %s: %v\n", *figure, err)
				os.Exit(1)
			}
			emit(fig)
			return
		}
		if strings.HasPrefix(*figure, "ablation-") {
			runFigure(r, *figure, true)
			return
		}
		var ids []string
		for _, id := range strings.Split(*figure, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
		// Batch-execute the requested figures' combined cell set so shared
		// cells run once and the pool stays full — even for one figure,
		// whose generator would otherwise run cells with less parallelism
		// than the pool (and, under -serve, starve the farm's workers).
		// Errors are deliberately dropped: runFigure below re-resolves
		// each figure and reports unknown ids and cell failures with
		// their usual messages.
		_ = r.Prewarm(ids...)
		for _, id := range ids {
			runFigure(r, id, false)
			fmt.Println()
		}
	}
}

// runWorker joins a cell farm and executes leased cells until the
// coordinator drains the farm, reconnecting with backoff if the
// connection drops. The experiment config comes from the coordinator's
// handshake; local fidelity flags are ignored.
func runWorker(addr string, parallel int, cacheDir string, cacheMax int64) {
	capacity := parallel
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	var cache harness.ResultCache
	if cacheDir != "" {
		fc, err := farm.NewFileCache(cacheDir, repro.ModelVersion())
		if err != nil {
			fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
			os.Exit(2)
		}
		fc.MaxBytes = cacheMax
		fc.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
		cache = fc
	}
	err := farm.Join(addr, farm.WorkerOptions{
		Version:  repro.ModelVersion(),
		Capacity: capacity,
		Cache:    cache,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
		os.Exit(1)
	}
}

// parseNodes parses the -nodes list. Every entry must be a positive
// integer: a typo fails the run instead of silently narrowing the sweep.
func parseNodes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := parseNodeCount(part)
		if err != nil {
			return nil, fmt.Errorf("-nodes: %v (want a comma-separated list of positive integers)", err)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseNodeCount parses one positive node count.
func parseNodeCount(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad node count %q", s)
	}
	return n, nil
}

// runFigure generates one registered figure (or, with ablation set, one
// ablation) and emits it.
func runFigure(r *harness.Runner, id string, ablation bool) {
	kind, gens, label := "figure", r.Figures(), "figure "+id
	if ablation {
		kind, gens, label = "ablation", r.Ablations(), id
	}
	gen, ok := gens[id]
	if !ok {
		fmt.Fprintf(os.Stderr, "apmbench: unknown %s %q (try -list)\n", kind, id)
		os.Exit(2)
	}
	fig, err := gen()
	if err != nil {
		fmt.Fprintf(os.Stderr, "apmbench: %s: %v\n", label, err)
		os.Exit(1)
	}
	emit(fig)
}

// outputFormat is set from -format in main.
var outputFormat = "table"

func emit(fig harness.Figure) {
	if outputFormat == "csv" {
		fmt.Print(fig.RenderCSV())
		return
	}
	fmt.Print(fig.Render())
}

// runScenario loads a scenario grid from path, executes it and emits the
// resulting figure.
func runScenario(r *harness.Runner, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
		os.Exit(2)
	}
	sc, err := harness.ParseScenario(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
		os.Exit(2)
	}
	fig, err := r.RunScenario(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
		os.Exit(1)
	}
	emit(fig)
}

// parseExplain parses -explain's system:nodes:workload[:D] into a cell.
func parseExplain(spec string) (harness.Cell, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return harness.Cell{}, errors.New("-explain wants system:nodes:workload[:D]")
	}
	nodes, err := parseNodeCount(parts[1])
	if err != nil {
		return harness.Cell{}, err
	}
	if len(parts) == 4 && !strings.EqualFold(parts[3], "D") {
		return harness.Cell{}, fmt.Errorf("-explain: bad cluster %q (want D, or omit it for Cluster M)", parts[3])
	}
	return harness.Cell{
		System:   harness.System(parts[0]),
		Nodes:    nodes,
		Workload: parts[2],
		ClusterD: len(parts) == 4,
	}, nil
}

// runExplain prints the utilization report for the cell spec names.
func runExplain(r *harness.Runner, spec string) {
	cell, err := parseExplain(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apmbench: %v\n", err)
		os.Exit(2)
	}
	ex, err := r.Explain(cell)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apmbench: explain: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(ex.Render())
}
