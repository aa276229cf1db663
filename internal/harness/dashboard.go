package harness

import "repro/internal/query"

// APMDashboard is the built-in analytic-read figure (`-figure
// apm-dashboard`): the APM dashboard read path the paper motivates but
// never benchmarks (§2 reads "the last 10 minutes/hours of a metric";
// YCSB's scans start at uniformly random keys). The grid loads the
// time-ordered measurement grid — so node-local sstables come out
// key-striped — and serves a weighted mix of dashboard panels, each a set
// of per-metric range scans piped through the query operator layer. On the
// LSM stores every per-metric seek gives `lsm.Scan` key-range table
// pruning a chance to fire, visible per cell via -memstats ("scanstats"
// lines).
//
// Voldemort is excluded like the paper's scan figures exclude it: the
// query layer reads through the scan path its client lacks.
func APMDashboard(nodes []int) *Scenario {
	return &Scenario{
		Name:        "apm-dashboard",
		Description: "dashboard query mix over the time-ordered APM measurement grid",
		Systems:     []System{Cassandra, HBase, VoltDB, Redis, MySQL},
		Nodes:       nodes,
		Metric:      "scan-latency",
		Queries:     query.DashboardPanels(),
	}
}
