// Package base holds helpers shared by the store models: the client-to-
// server round-trip pattern (YCSB clients ran on separate machines wired to
// the same gigabit switch), message-size constants, and the recycled row
// buffers of fan-out scans.
package base

import (
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/store"
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

// RunBufs is a free list of the row buffers a fan-out scan gathers its
// per-partition runs into before store.MergeRuns. A scan takes one buffer
// for the whole call and gives it back once MergeRuns has copied the
// winning rows out, so two scans that park concurrently never share one; a
// scan whose process is killed mid-fan-out just leaves its buffer to the
// garbage collector. The rows themselves view store-owned memory, not the
// buffer, so the merged page outlives the buffer's reuse.
type RunBufs struct{ free [][]store.Record }

// Take returns an empty buffer with room for at least n rows.
func (r *RunBufs) Take(n int) []store.Record {
	if k := len(r.free) - 1; k >= 0 {
		b := r.free[k]
		r.free = r.free[:k]
		if cap(b) >= n {
			return b
		}
	}
	return make([]store.Record, 0, max(n, 0))
}

// Give returns b for reuse by a later Take.
func (r *RunBufs) Give(b []store.Record) { r.free = append(r.free, b[:0]) }
