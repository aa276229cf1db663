package harness

import "fmt"

// Ablations compare a paper-documented design choice against its
// alternative (DESIGN.md §5). Each is a grid like any figure: its series
// carry the design choice as a Variants string resolved by DeployVariants,
// and it executes through Runner.RunAll. That buys the ablations the
// figures' execution contract: the singleflight cell cache (cells shared
// with figures or between ablations — e.g. the paper-default series —
// measure once per runner), stable hashed seeds (results are
// schedule-independent, so -parallel N output is byte-identical),
// plan-ordered progress lines, and Prewarm batching across `-figure
// ablation-all`.

// variant is one labelled deployment-option combo of an ablation.
type variant struct{ label, variants string }

// ablationGrids lists every ablation in display order.
var ablationGrids = []entry{
	// Cassandra, optimal vs random token assignment (§6): random tokens
	// "frequently resulted in a highly unbalanced workload"; placement is
	// moot on one node.
	variantSweep("ablation-cassandra-tokens", "Cassandra: optimal vs random token assignment (Workload R)", "ops/sec",
		Cell{System: Cassandra, Workload: "R"}, throughputMetric, func(n int) bool { return n > 1 },
		variant{"optimal-tokens", ""}, variant{"random-tokens", "tokens=random"}),
	// Cassandra, commit log batch window vs write latency: sweeps the batch
	// group-commit window writers wait for, isolating the source of
	// Cassandra's high write latency in the reproduction.
	{"ablation-cassandra-commitlog", func(Config) grid {
		cells, xs := intSweep(Cell{System: Cassandra, Nodes: 4, Workload: "RW"}, "commitlog", 2, 5, 10, 18, 30)
		return grid{
			fig: Figure{ID: "ablation-cassandra-commitlog",
				Title:  "Cassandra: commit log batch window vs write latency (Workload RW, 4 nodes)",
				XLabel: "window ms", YLabel: "write latency ms"},
			series: []series{{"write-latency", cells, xs, perCell(writeLatMetric)}},
		}
	}},
	// Cassandra, replication factor vs throughput (§8 future work): RF=1
	// (the paper's unreplicated run, so the default deployment) vs RF=3 at
	// consistency ONE and ALL; RF=3 needs at least 3 nodes for distinct
	// replicas.
	variantSweep("ablation-cassandra-replication", "Cassandra: replication factor vs throughput (Workload W)", "ops/sec",
		Cell{System: Cassandra, Workload: "W"}, throughputMetric, func(n int) bool { return n >= 3 },
		variant{"rf1", ""}, variant{"rf3-one", "replication=3,consistency=one"}, variant{"rf3-all", "replication=3,consistency=all"}),
	// Cassandra, compression off vs on (§5.7): "the disk usage can be
	// reduced by using compression which, however, will decrease the
	// throughput". Each variant plots a throughput and a disk series from
	// the same cells.
	{"ablation-cassandra-compression", func(cfg Config) grid {
		g := grid{fig: Figure{ID: "ablation-cassandra-compression",
			Title: "Cassandra: compression off vs on (Workload R, disk + throughput)", XLabel: "nodes",
			YLabel: "ops/sec (tput series) / GB (disk series)"}}
		for _, v := range []variant{{"off", ""}, {"on", "compression=on"}} {
			c := Cell{System: Cassandra, Workload: "R", Variants: v.variants}
			g.series = append(g.series,
				overNodes(cfg, "tput-"+v.label, c, throughputMetric, nil),
				overNodes(cfg, "disk-"+v.label, c, diskMetric, nil))
		}
		return g
	}},
	// Client connections per node (§8 tuning observation) on a 4-node
	// Cassandra cluster: too few connections leave the servers
	// underutilized, too many congest them and inflate latency without
	// throughput gains.
	{"ablation-connections", func(Config) grid {
		cells, xs := intSweep(Cell{System: Cassandra, Nodes: 4, Workload: "R"}, "conns", 8, 32, 64, 128, 256, 512)
		return grid{
			fig: Figure{ID: "ablation-connections",
				Title:  "Connections per node vs throughput and read latency (Cassandra, 4 nodes, Workload R)",
				XLabel: "conns/node", YLabel: "ops/sec (tput) / ms (latency)"},
			series: []series{
				{"throughput", cells, xs, perCell(throughputMetric)},
				{"read-latency-ms", cells, xs, perCell(readLatMetric)},
			},
		}
	}},
	// HBase, the client write buffer (deferred flush) vs per-put RPCs on
	// the write-heavy workload.
	variantSweep("ablation-hbase-autoflush", "HBase: client write buffer vs autoflush (Workload W)", "ops/sec",
		Cell{System: HBase, Workload: "W"}, throughputMetric, nil,
		variant{"write-buffer", ""}, variant{"autoflush", "autoflush=on"}),
	// MySQL, disk usage with and without the binary log (§5.7): "without
	// this feature the disk usage is essentially reduced by half". Disk
	// usage needs no workload run, so the grid is load-only cells.
	variantSweep("ablation-mysql-binlog", "MySQL: disk usage with and without binary log", "GB (paper scale)",
		Cell{System: MySQL, LoadOnly: true}, diskMetric, nil,
		variant{"binlog-on", ""}, variant{"binlog-off", "binlog=off"}),
	// Redis, Jedis ring vs balanced sharding (§5.1): with the Jedis ring
	// "the data distribution is unbalanced".
	variantSweep("ablation-redis-sharding", "Redis: Jedis ring vs balanced sharding (Workload R)", "ops/sec",
		Cell{System: Redis, Workload: "R"}, throughputMetric, nil,
		variant{"jedis-ring", ""}, variant{"balanced", "sharding=balanced"}),
	// VoltDB, synchronous vs asynchronous client (§6): Hugg's asynchronous
	// benchmark "achieved a speed-up with a fixed sized database", unlike
	// the paper's synchronous client.
	variantSweep("ablation-voltdb-async", "VoltDB: synchronous vs asynchronous client (Workload R)", "ops/sec",
		Cell{System: VoltDB, Workload: "R"}, throughputMetric, nil,
		variant{"sync-client", ""}, variant{"async-client", "async=on"}),
}

// variantSweep is the common ablation shape: one series per variant of c
// over the node counts keep accepts.
func variantSweep(id, title, yLabel string, c Cell, m metric, keep func(int) bool, vs ...variant) entry {
	return entry{id, func(cfg Config) grid {
		g := grid{fig: Figure{ID: id, Title: title, XLabel: "nodes", YLabel: yLabel}}
		for _, v := range vs {
			vc := c
			vc.Variants = v.variants
			g.series = append(g.series, overNodes(cfg, v.label, vc, m, keep))
		}
		return g
	}}
}

// intSweep sets variant key of c to each value in turn, the values being
// the X axis.
func intSweep(c Cell, key string, vals ...int) ([]Cell, []float64) {
	var cells []Cell
	var xs []float64
	for _, v := range vals {
		c.Variants = fmt.Sprintf("%s=%d", key, v)
		cells = append(cells, c)
		xs = append(xs, float64(v))
	}
	return cells, xs
}
