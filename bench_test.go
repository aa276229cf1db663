// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one testing.B benchmark per exhibit), plus ablation benches
// for the design choices DESIGN.md calls out.
//
// Each benchmark executes its figure end to end — deploy, load, warm up,
// measure — on the quick configuration (scale 1/1000, 1/2/4 nodes), and
// reports the figure's headline value as a custom metric so -benchmem runs
// double as a coarse regression check. For paper-scale output use
// cmd/apmbench.
package repro

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/btree"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/lsm"
	"repro/internal/sim"
	"repro/internal/sstable"
	"repro/internal/store"
	"repro/internal/ycsb"
)

func clusterM4() cluster.Spec { return cluster.ClusterM(4) }
func keyOf(i int64) string    { return store.Key(i) }

// benchCfg is the shared quick-fidelity configuration. A single cached
// runner is shared across benchmarks so figures over the same cells (e.g.
// Fig 3/4/5) measure each cell once.
var benchRunner = harness.NewRunner(harness.Config{
	Scale:          0.001,
	Warmup:         200 * sim.Millisecond,
	Measure:        600 * sim.Millisecond,
	NodeCounts:     []int{1, 2, 4},
	RecordsPerNode: 10_000_000,
})

// runFigureBench executes the figure generator b.N times and reports the
// mean of the last series' final Y value.
func runFigureBench(b *testing.B, gen func() (harness.Figure, error), metricName string) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		fig, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) > 0 && len(fig.Series[0].Y) > 0 {
			s := fig.Series[0]
			last = s.Y[len(s.Y)-1]
		}
	}
	b.ReportMetric(last, metricName)
}

func BenchmarkTable1Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if harness.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig03ThroughputR(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["3"], "cassandra_ops/s")
}

func BenchmarkFig04ReadLatencyR(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["4"], "cassandra_read_ms")
}

func BenchmarkFig05WriteLatencyR(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["5"], "cassandra_write_ms")
}

func BenchmarkFig06ThroughputRW(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["6"], "cassandra_ops/s")
}

func BenchmarkFig07ReadLatencyRW(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["7"], "cassandra_read_ms")
}

func BenchmarkFig08WriteLatencyRW(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["8"], "cassandra_write_ms")
}

func BenchmarkFig09ThroughputW(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["9"], "cassandra_ops/s")
}

func BenchmarkFig10ReadLatencyW(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["10"], "cassandra_read_ms")
}

func BenchmarkFig11WriteLatencyW(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["11"], "cassandra_write_ms")
}

func BenchmarkFig12ThroughputRS(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["12"], "cassandra_ops/s")
}

func BenchmarkFig13ScanLatencyRS(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["13"], "cassandra_scan_ms")
}

func BenchmarkFig14ThroughputRSW(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["14"], "cassandra_ops/s")
}

func BenchmarkFig15BoundedReadLatency(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["15"], "cassandra_norm")
}

func BenchmarkFig16BoundedWriteLatency(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["16"], "cassandra_norm")
}

func BenchmarkFig17DiskUsage(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["17"], "cassandra_gb")
}

func BenchmarkFig18ClusterDThroughput(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["18"], "cassandra_ops/s")
}

func BenchmarkFig19ClusterDReadLatency(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["19"], "cassandra_read_ms")
}

func BenchmarkFig20ClusterDWriteLatency(b *testing.B) {
	runFigureBench(b, benchRunner.Figures()["20"], "cassandra_write_ms")
}

func BenchmarkAblationCassandraTokens(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-cassandra-tokens"], "optimal_ops/s")
}

func BenchmarkAblationRedisSharding(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-redis-sharding"], "jedis_ops/s")
}

func BenchmarkAblationMySQLBinlog(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-mysql-binlog"], "binlog_gb")
}

func BenchmarkAblationHBaseAutoflush(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-hbase-autoflush"], "buffered_ops/s")
}

func BenchmarkAblationVoltDBAsync(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-voltdb-async"], "sync_ops/s")
}

func BenchmarkAblationCassandraCommitlog(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-cassandra-commitlog"], "write_ms")
}

// BenchmarkSingleOps measures the per-operation simulation cost for each
// store (how fast the simulator itself runs, not the simulated latency).
func BenchmarkSingleOps(b *testing.B) {
	for _, sys := range harness.AllSystems {
		b.Run(string(sys), func(b *testing.B) {
			dep, err := harness.DeployVariants(1, sys, clusterM4(), 0.001, "")
			if err != nil {
				b.Fatal(err)
			}
			// The load seals every engine as the harness's does, so
			// deferred builds stay out of the timed reads.
			ycsb.Load(dep.Store, 1000)
			b.ResetTimer()
			dep.Engine.Go("bench", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					dep.Store.Read(p, keyOf(int64(i%1000)))
				}
			})
			dep.Engine.Run(0)
		})
	}
}

// BenchmarkEngineSchedule measures the scheduler hot path: scheduling and
// draining one reused timer event. This is the per-event floor every
// simulated operation pays many times over.
func BenchmarkEngineSchedule(b *testing.B) {
	e := sim.NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(sim.Microsecond, fn)
		e.Run(0)
	}
}

// benchTree builds a memory-bound LSM tree with 50k records spread over
// several SSTable generations, plus the precomputed key set. It seals the
// tree, as a loader does, so the deferred build stays out of the timed
// reads.
func benchTree(e *sim.Engine) (*lsm.Tree, []string) {
	n := cluster.New(e, cluster.ClusterM(1)).Nodes[0]
	tr := lsm.New(lsm.Config{
		Node:       n,
		FlushBytes: 1 << 17,
		Overhead:   sstable.Overhead{PerEntry: 10, PerCell: 20},
		CacheBytes: 1 << 30, // fully cached: isolate CPU cost from simulated I/O
	})
	keys := make([]string, 50000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%09d", i)
		tr.LoadDirect(keys[i], [][]byte{[]byte("0123456789")})
	}
	tr.Seal()
	return tr, keys
}

// BenchmarkLSMGet measures the point-read path across memtable and tables.
func BenchmarkLSMGet(b *testing.B) {
	e := sim.NewEngine(1)
	tr, keys := benchTree(e)
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("r", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, ok := tr.Get(p, keys[i%len(keys)]); !ok {
				// Errorf and return: the process ends and Run drains.
				b.Errorf("missing key %s", keys[i%len(keys)])
				return
			}
		}
	})
	e.Run(0)
}

// BenchmarkLSMInsert measures the full per-operation write path the
// benchmark's load and insert loops pay: key build and field-set build into reused per-client buffers (the YCSB
// runner's steady-state path — zero allocations per op), WAL append
// (async) and memtable insert. The flush threshold is set beyond the
// bench's reach so the numbers isolate the per-op cost from flush churn
// (which the figure benches cover end to end).
func BenchmarkLSMInsert(b *testing.B) {
	e := sim.NewEngine(1)
	n := cluster.New(e, cluster.ClusterM(1)).Nodes[0]
	tr := lsm.New(lsm.Config{
		Node:       n,
		FlushBytes: 1 << 40,
		Overhead:   sstable.Overhead{PerEntry: 10, PerCell: 20},
		CacheBytes: 1 << 30,
	})
	var buf store.Fields
	var kb []byte
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("w", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			id := int64(i)
			buf = store.FillFields(buf, id, store.FieldBytes)
			kb = store.AppendKey(kb[:0], id)
			// Zero-copy string view of the key buffer: sound because the
			// memtable copies key bytes into its arena before returning,
			// the copy-on-ingest contract the runner relies on.
			tr.Put(p, unsafe.String(unsafe.SliceData(kb), len(kb)), buf)
		}
	})
	e.Run(0)
}

// BenchmarkLSMLoadDirect measures the deferred load: each op bulk-loads
// a fixed 100,000 benchmark-shaped records into a fresh tree and seals it.
// The records are cut into batches at the 512 KiB flush threshold (about
// 14 of them), the flush and compaction schedule over two size tiers is
// replayed on their sizes, and Seal builds each final table once, merging
// its batches and adopting their payload chunks. The work per op is
// fixed, so its bytes/op compares across runs of any length.
//
// The collector is off for the whole benchmark, so the heap grows by
// about 21 MB per op, plus one untimed warm-up load, until it returns:
// run it at a small fixed count. A collection cycle allocates a few
// runtime objects of its own, as many as GC timing dictates, which made
// allocs/op wander by one across runs. The warm-up gives the runtime's
// work after the harness's own collection time to finish, so allocs/op
// counts the load path alone.
func BenchmarkLSMLoadDirect(b *testing.B) {
	const records = 100000
	var buf store.Fields
	var kb []byte
	load := func() *lsm.Tree {
		e := sim.NewEngine(1)
		tr := lsm.New(lsm.Config{
			Node:       cluster.New(e, cluster.ClusterM(1)).Nodes[0],
			FlushBytes: 1 << 19,
			Overhead:   sstable.Overhead{PerEntry: 10, PerCell: 20},
		})
		for id := int64(0); id < records; id++ {
			buf = store.FillFields(buf, id, store.FieldBytes)
			kb = store.AppendKey(kb[:0], id)
			// Zero-copy key view: the tree copies key bytes on ingest.
			tr.LoadDirect(unsafe.String(unsafe.SliceData(kb), len(kb)), buf)
		}
		tr.Seal()
		return tr
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if load().Compactions() == 0 {
		b.Fatal("no compaction ran")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load()
	}
}

// benchBTreeConfig mirrors the MySQL deployment's InnoDB shape (94-row
// leaves, 512-way internals, default 1024-page pool — evictions included,
// since the load phase pays them too on small pools).
func benchBTreeConfig() btree.Config {
	return btree.Config{LeafCap: 94, InternalCap: 512}
}

// benchBTreeData precomputes benchmark-shaped keys and field sets so the
// B-tree benches measure tree cost, not key formatting.
func benchBTreeData(n int) ([]string, [][][]byte) {
	keys := make([]string, n)
	vals := make([][][]byte, n)
	for i := range keys {
		keys[i] = store.Key(int64(i))
		vals[i] = store.MakeFields(int64(i))
	}
	return keys, vals
}

// BenchmarkBTreeInsert measures the per-record insert path (workload-phase
// inserts): prefix-compared descent, leaf insert, splits, intrusive buffer-pool touches.
func BenchmarkBTreeInsert(b *testing.B) {
	keys, vals := benchBTreeData(b.N)
	tr := btree.New(benchBTreeConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(keys[i], vals[i])
	}
}

// BenchmarkBTreeBulkLoad measures the deferred bulk build the load phase
// uses: buffer the batch, then one construction pass with no per-touch
// buffer-pool work and a pool restored from each page's last touch.
func BenchmarkBTreeBulkLoad(b *testing.B) {
	keys, vals := benchBTreeData(b.N)
	tr := btree.New(benchBTreeConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Load(keys[i], vals[i])
	}
	_ = tr.Len() // Len seals: the deferred build runs inside the timer
}

// BenchmarkBTreeSeal measures the load phase's B-tree build alone: each
// op loads a fixed 100,000 benchmark-shaped records (hash-ordered keys)
// into a fresh tree outside the timer and times only Seal, for the
// Voldemort (11-row leaves, 128-way internals) and MySQL (94/512) page
// shapes. The build keeps its scratch between builds, so after the first
// op bytes/op counts the tree's pages alone; a collection before each op
// keeps the previous op's tree out of the timed build. Each op loads 100k
// records: run it at a small fixed count.
func BenchmarkBTreeSeal(b *testing.B) {
	const records = 100_000
	keys, vals := benchBTreeData(records)
	for _, shape := range []struct {
		name        string
		leaf, inner int
	}{{"voldemort", 11, 128}, {"mysql", 94, 512}} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := btree.New(btree.Config{LeafCap: shape.leaf, InternalCap: shape.inner})
				for j := range keys {
					tr.Load(keys[j], vals[j])
				}
				runtime.GC()
				b.StartTimer()
				tr.Seal()
			}
		})
	}
}

// BenchmarkBTreeUpdate measures the read-modify-write path MySQL/Voldemort
// updates charge: a clean descent plus an in-place leaf rewrite.
func BenchmarkBTreeUpdate(b *testing.B) {
	const n = 100_000
	keys, vals := benchBTreeData(n)
	tr := btree.New(benchBTreeConfig())
	for i := 0; i < n; i++ {
		tr.Load(keys[i], vals[i])
	}
	tr.Len() // seal outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := tr.Update(keys[i%n], vals[i%n]); !ok {
			b.Fatal("update missed a loaded key")
		}
	}
}

// BenchmarkLSMScan measures the 50-row merged range-scan path.
func BenchmarkLSMScan(b *testing.B) {
	e := sim.NewEngine(1)
	tr, keys := benchTree(e)
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("r", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if got := tr.Scan(p, keys[i%len(keys)], 50); len(got) == 0 {
				b.Errorf("empty scan from %s", keys[i%len(keys)])
				return
			}
		}
	})
	e.Run(0)
}

func BenchmarkAblationCassandraReplication(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-cassandra-replication"], "rf1_ops/s")
}

func BenchmarkAblationCassandraCompression(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-cassandra-compression"], "tput_off_ops/s")
}

// benchRunAllFig3 measures end-to-end cell execution for Fig 3's plan (18
// cells at quick fidelity) on a fresh, cold runner per iteration, at the
// given worker-pool width. Serial-vs-parallel pairs quantify the cell-level
// parallelism the plan/execute runner buys on multi-core.
func benchRunAllFig3(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(harness.Config{
			Scale:          0.001,
			Warmup:         200 * sim.Millisecond,
			Measure:        600 * sim.Millisecond,
			NodeCounts:     []int{1, 2, 4},
			RecordsPerNode: 10_000_000,
		})
		r.Workers = workers
		if err := r.RunAll(r.CellsFor("3")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllFig3Serial(b *testing.B)   { benchRunAllFig3(b, 1) }
func BenchmarkRunAllFig3Parallel(b *testing.B) { benchRunAllFig3(b, 0) } // 0 = GOMAXPROCS
