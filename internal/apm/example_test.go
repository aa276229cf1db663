package apm_test

import (
	"fmt"

	"repro/internal/apm"
	"repro/internal/slab"
)

// An APM measurement as in the paper's Figure 2, encoded to a storage
// record and back.
func ExampleMeasurement() {
	m := apm.Measurement{
		Metric:    "HostA/AgentX/ServletB/AverageResponseTime",
		Value:     4,
		Min:       1,
		Max:       6,
		Timestamp: 1332988833,
		Duration:  15,
	}
	fmt.Println(m.Key())
	back, _ := apm.Decode(m.Key(), slab.View(m.Fields()))
	fmt.Println(back.Value, back.Min, back.Max, back.Duration)
	// Output:
	// HostA/AgentX/ServletB/AverageResponseTime|001332988833
	// 4 1 6 15
}

// The paper's §1 sizing arithmetic: 10K nodes x 10K metrics at a 10-second
// interval is 10 million measurements per second.
func ExampleIngestRate() {
	fmt.Printf("%.0f measurements/sec\n", apm.IngestRate(10000, 10000, 10))
	// Output:
	// 10000000 measurements/sec
}

// The paper's §8 capacity arithmetic: 240 monitored hosts reporting 10K
// metrics every 10 seconds need 240K inserts/sec, and at most 5% of the
// fleet may be storage nodes. A store sustaining 20K Workload W inserts/sec
// per node needs 13 nodes, one more than the budget allows; `apmbench
// -figure 9` measures each store's Workload W throughput.
func ExampleStorageNodesNeeded() {
	const hosts, budget = 240, 0.05
	ingest := apm.IngestRate(hosts, 10_000, 10)
	fmt.Printf("ingest: %.0f inserts/sec, budget: %d storage nodes\n", ingest, int(hosts*budget))
	for _, perNode := range []float64{10_000, 20_000, 25_000} {
		nodes, ok := apm.StorageNodesNeeded(ingest, perNode, hosts, budget)
		fmt.Printf("%.0f inserts/sec per node: %d nodes, within budget: %v\n", perNode, nodes, ok)
	}
	// Output:
	// ingest: 240000 inserts/sec, budget: 12 storage nodes
	// 10000 inserts/sec per node: 25 nodes, within budget: false
	// 20000 inserts/sec per node: 13 nodes, within budget: false
	// 25000 inserts/sec per node: 10 nodes, within budget: true
}
