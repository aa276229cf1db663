package ycsb_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/stores/cassandra"
	"repro/internal/ycsb"
)

// The five workload mixes of the paper's Table 1.
func ExampleWorkloadByName() {
	for _, name := range []string{"R", "RW", "W", "RS", "RSW"} {
		w, _ := ycsb.WorkloadByName(name)
		fmt.Printf("%-4s reads=%.0f%% scans=%.0f%% inserts=%.0f%%\n",
			w.Name, w.ReadProp*100, w.ScanProp*100, w.InsertProp*100)
	}
	// Output:
	// R    reads=95% scans=0% inserts=5%
	// RW   reads=50% scans=0% inserts=50%
	// W    reads=1% scans=0% inserts=99%
	// RS   reads=47% scans=47% inserts=6%
	// RSW  reads=25% scans=25% inserts=50%
}

// Deploy Cassandra on a simulated 2-node Cluster M, load it, and drive the
// APM insert stream (Workload W: 99% inserts) with the paper's 128
// connections per node. The cluster runs at 1/1000 of the paper's hardware
// and data size, so the run takes a fraction of a host second;
// `apmbench -figure 9` sweeps this workload over every store and node count.
func ExampleRun() {
	const nodes, scale = 2, 0.001
	engine := sim.NewEngine(1)
	db := cassandra.New(cluster.New(engine, cluster.ClusterM(nodes).Scale(scale)),
		cassandra.Options{MemtableFlushBytes: 16 << 10})
	records := int64(nodes * 10_000_000 * scale)
	ycsb.Load(db, records)
	res, err := ycsb.Run(engine, ycsb.RunConfig{
		Store:          db,
		Workload:       ycsb.WorkloadW,
		Clients:        nodes * 128,
		InitialRecords: records,
		Warmup:         100 * sim.Millisecond,
		Measure:        500 * sim.Millisecond,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	s := res.Summarize()
	fmt.Printf("loaded %d records, %.1f MB on disk\n", records, float64(db.DiskUsage())/1e6)
	fmt.Printf("throughput: %.0f ops/sec, errors: %d\n", s.Throughput, s.Errors)
	fmt.Printf("insert latency: mean=%v p99=%v\n", s.Insert.Mean, s.Insert.P99)
	fmt.Printf("read latency:   mean=%v p99=%v\n", s.Read.Mean, s.Read.P99)
	// Output:
	// loaded 20000 records, 7.5 MB on disk
	// throughput: 16040 ops/sec, errors: 0
	// insert latency: mean=16.38ms p99=49.88ms
	// read latency:   mean=2.10ms p99=5.14ms
}
