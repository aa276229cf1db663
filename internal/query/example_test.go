package query_test

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/stores/hbase"
)

// The paper's two §2 dashboard queries, run against an HBase store holding
// 40 minutes of measurements from four monitored hosts: "the maximum number
// of connections on host X within the last 10 minutes" and "the average CPU
// utilization of Web servers of type Y" (here hosts 0 and 1). HBase's
// range-partitioned regions keep each metric's rows in one ordered run, so
// every per-metric range read is exact. `apmbench -figure apm-dashboard`
// runs a weighted mix of such queries with concurrent dashboard clients.
func ExampleQuery_Execute() {
	engine := sim.NewEngine(1)
	db := hbase.New(cluster.New(engine, cluster.ClusterM(1).Scale(0.01)), hbase.Options{MemstoreFlushBytes: 64 << 10})
	ds := query.Dataset{Hosts: 4, MetricsPerHost: 5, Intervals: 240, IntervalSec: 10, BaseTs: 1_600_000_000}
	ds.Load(db, 1)
	// ranges selects one metric kind's series on the given hosts.
	ranges := func(kind string, from, to int64, hosts ...int) []query.Range {
		var out []query.Range
		for _, h := range hosts {
			for _, r := range ds.HostRanges(h, from, to) {
				if strings.HasSuffix(r.Metric, "/"+kind) {
					out = append(out, r)
				}
			}
		}
		return out
	}
	maxConns, _ := query.Plan(query.Spec{Name: "max-connections", WindowSec: 600, Column: "max", Aggs: []string{"max", "count"}})
	webCPU, _ := query.Plan(query.Spec{Name: "web-cpu", WindowSec: 900, GroupBy: "kind", Aggs: []string{"avg", "count"}})

	engine.Go("dashboard", func(p *sim.Proc) {
		for _, q := range []struct {
			plan  *query.Query
			kind  string
			hosts []int
		}{{maxConns, "ConnectionCount", []int{2}}, {webCPU, "CPUUtilization", []int{0, 1}}} {
			from, to := ds.Window(q.plan.Spec.WindowSec)
			start := p.Now()
			rows, err := q.plan.Execute(p, db, ranges(q.kind, from, to, q.hosts...))
			if err != nil {
				fmt.Println(err)
				return
			}
			for _, r := range rows {
				fmt.Printf("%s %s:", q.plan.Spec.Name, r.Group)
				for i, agg := range q.plan.Spec.Aggs {
					fmt.Printf(" %s=%.4g", agg, r.Aggs[i])
				}
				fmt.Printf(" (%v)\n", p.Now()-start)
			}
		}
	})
	engine.Run(0)
	// Output:
	// max-connections Host002/Agent/Component000/ConnectionCount: max=124.8 count=60 (7.74ms)
	// web-cpu CPUUtilization: avg=49.27 count=180 (15.49ms)
}
