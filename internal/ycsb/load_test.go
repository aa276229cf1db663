package ycsb_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/stores/cassandra"
	"repro/internal/ycsb"
)

// BenchmarkLoadSized loads 40,000 records into a fresh 4-node Cassandra at
// load fan-out 1 and 2 (deployment untimed). The load driver allocates per
// worker, never per record, so allocs/op must not grow with the fan-out
// beyond a worker's fixed handful: CI compares the two.
func BenchmarkLoadSized(b *testing.B) {
	for _, fanout := range []int{1, 2} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := cassandra.New(cluster.New(sim.NewEngine(1), cluster.ClusterM(4).Scale(0.001)),
					cassandra.Options{MemtableFlushBytes: 16 << 10})
				b.StartTimer()
				ycsb.LoadSized(db, 40_000, store.FieldBytes, fanout)
			}
		})
	}
}
