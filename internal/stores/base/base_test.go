package base

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestRoundtripOrdersPhases(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(2))
	var handlerAt, doneAt sim.Time
	e.Go("c", func(p *sim.Proc) {
		Roundtrip(p, c.Nodes[0], ReqHeader, RecordWire, func() {
			handlerAt = p.Now()
			p.Sleep(sim.Millisecond)
		})
		doneAt = p.Now()
	})
	e.Run(0)
	if handlerAt == 0 {
		t.Fatal("handler ran before request propagation")
	}
	if doneAt <= handlerAt+sim.Millisecond {
		t.Fatal("response did not cost network time")
	}
}

func TestRoundtripNilHandler(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(1))
	e.Go("c", func(p *sim.Proc) {
		Roundtrip(p, c.Nodes[0], 10, 10, nil) // must not panic
	})
	e.Run(0)
}

// A server-to-server hop (the coordinator forwarding to a replica owner in
// cassandra and voltdb) is one cluster.Node.RPC: the request crosses the
// source NIC and the response the destination's.
func TestForwardUsesBothNICs(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(2))
	var elapsed sim.Time
	e.Go("c", func(p *sim.Proc) {
		start := p.Now()
		c.Nodes[0].RPC(p, c.Nodes[1], 1<<20, 1<<20, nil)
		elapsed = p.Now() - start
	})
	e.Run(0)
	// Two 1 MiB transfers at ~117 MB/s is ~17 ms.
	if elapsed < 15*sim.Millisecond {
		t.Fatalf("forward of 2x1MiB took %v, want >= ~17ms", elapsed)
	}
}
