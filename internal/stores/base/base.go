// Package base holds helpers shared by the store models: the client-to-
// server round-trip pattern (YCSB clients ran on separate machines wired to
// the same gigabit switch) and message-size constants.
package base

import (
	"repro/internal/cluster"
	"repro/internal/sim"
)

// Message size approximations (bytes) for request/response framing.
const (
	ReqHeader  = 64  // op header + key
	RecordWire = 140 // one record serialized with field names
	AckWire    = 32  // small acknowledgement
)

// Roundtrip models one synchronous client request against node n: request
// propagation to the server, the server-side handler, then the response
// through the server's NIC back to the client. The handler runs in the
// calling process and should charge CPU/disk work to the server's resources.
func Roundtrip(p *sim.Proc, n *cluster.Node, reqBytes, respBytes int64, handler func()) {
	p.Sleep(n.NetDelay(reqBytes))
	if handler != nil {
		handler()
	}
	n.Send(p, n, respBytes)
}
