package store

import (
	"sync"
	"unsafe"
)

// Records is a load phase's record stream: Count records, numbered
// 0..Count-1, each built on demand.
type Records struct {
	Count int64
	// NewBuilder returns a Builder with buffers of its own; each load
	// worker takes one, so workers share nothing.
	NewBuilder func() Builder
}

// Builder builds the records of a Records stream.
type Builder interface {
	// AppendKey appends record i's key to dst and returns the extended
	// slice.
	AppendKey(dst []byte, i int64) []byte
	// Fields returns record i's fields, in buffers the builder reuses:
	// valid until its next Fields call.
	Fields(i int64) Fields
}

// LoadAll loads recs into s in record order, without consuming virtual
// time, and seals every engine (Store.SealNode).
//
// The load contract: a load feeds distinct keys into a deployment that
// nothing has read or written yet, once. The engines build their load in
// bulk from that promise, so a load into an engine already read, written
// or sealed panics, and so does a repeated key wherever the bulk build
// could not reproduce a per-record load (anywhere in a B-tree batch; in
// an LSM tree, within a flushed batch or the batches one table merges).
// Load keys only ever come from the program's own generators, so a break
// is a programming error, not an input error.
//
// With fanout > 1 and several engines, min(fanout, Nodes()) workers fill
// the engines concurrently: worker w walks the whole stream, building and
// routing every key, but builds fields and loads only for engines i with
// i % fanout == w, then seals those engines. Every engine thus receives
// exactly its serial-load records in the same order, so the result is
// bit-identical at any fan-out. There are no channels or batches: each
// worker builds and routes every key itself, a few tens of nanoseconds
// per record, and workers share nothing. A worker's panic is raised again
// on the caller's goroutine once every worker has stopped.
//
// Stores copy on ingest, so each worker reuses one key buffer and one
// field set for the whole stream.
func LoadAll(s Store, recs Records, fanout int) {
	fanout = min(fanout, s.Nodes())
	if fanout <= 1 {
		loadPart(s, recs, 0, 1)
		return
	}
	var wg sync.WaitGroup
	panics := make([]any, fanout)
	for w := 0; w < fanout; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			loadPart(s, recs, w, fanout)
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// loadPart is worker w of fanout: it loads and seals the engines i with
// i % fanout == w.
func loadPart(s Store, recs Records, w, fanout int) {
	b := recs.NewBuilder()
	var kb []byte
	nodes := make([]int, 0, 4)
	for i := int64(0); i < recs.Count; i++ {
		kb = b.AppendKey(kb[:0], i)
		key := keyView(kb)
		nodes = s.LoadNodes(nodes[:0], key)
		var f Fields
		for _, n := range nodes {
			if n%fanout != w {
				continue
			}
			if f == nil {
				f = b.Fields(i)
			}
			s.LoadNode(n, key, f)
		}
	}
	for n := w; n < s.Nodes(); n += fanout {
		s.SealNode(n)
	}
}

// keyView is a zero-copy string view of a key buffer. Sound because
// stores copy key bytes on ingest: the view dies with the Load call it is
// passed to, before the buffer is rebuilt for the next record.
func keyView(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
