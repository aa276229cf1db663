package store

import (
	"fmt"
	"sync"
	"unsafe"
)

// NodeLoader is the per-node seam of Load that LoadAll fans out over.
//
// Store.Load is whole-store: it routes a record and writes every node the
// record lands on, so two goroutines calling it on one store would race on
// the same engines, and no caller can split the work by node. Yet every
// store model is a set of per-node engines that share no mutable state
// (Cassandra replica trees, HBase regions, MySQL shards, Voldemort servers,
// Redis instances, VoltDB partition sites), and loading consumes no
// virtual time and draws no randomness. So the seam splits Load into
// routing (LoadNodes) and applying on one node (LoadNode): loaders that
// give each node to exactly one worker, and feed every node its records in
// stream order, leave each engine bit-identical to a serial load. Each
// store's Load is LoadVia over the same seam, so routing exists once.
type NodeLoader interface {
	Store
	// Nodes is the number of per-node engines, indexed 0..Nodes()-1.
	Nodes() int
	// LoadNodes appends to dst the engines Load(key, ·) writes and returns
	// the extended slice.
	LoadNodes(dst []int, key string) []int
	// LoadNode applies Load's effect on engine i only. Calls for distinct
	// engines may run concurrently.
	LoadNode(i int, key string, f Fields)
	// SealNode ends engine i's load phase, building any structure the
	// engine defers until first use (the B-tree stores' bulk build, the
	// LSM stores' deferred table build), so the build runs on the loading
	// worker. Stores whose engines defer nothing do nothing.
	SealNode(i int)
}

// LoadVia is Store.Load for a NodeLoader: the record goes to every engine
// LoadNodes routes it to.
func LoadVia(s NodeLoader, key string, f Fields) error {
	var buf [4]int
	for _, i := range s.LoadNodes(buf[:0], key) {
		s.LoadNode(i, key, f)
	}
	return nil
}

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
// time. With fanout > 1 and a NodeLoader with several engines, min(fanout,
// Nodes()) workers fill the engines concurrently: worker w walks the whole
// stream, building and routing every key, but builds fields and loads only
// for engines i with i % fanout == w, then seals those engines. Every
// engine thus receives exactly its serial-load records in the same order,
// so the result is bit-identical at any fan-out. There are no channels or
// batches: each worker builds and routes every key itself, a few tens of
// nanoseconds per record, and workers share nothing.
//
// Stores copy on ingest, so each worker reuses one key buffer and one
// field set for the whole stream. A store that is no NodeLoader is loaded
// serially through Load.
func LoadAll(s Store, recs Records, fanout int) error {
	nl, ok := s.(NodeLoader)
	if !ok {
		b := recs.NewBuilder()
		var kb []byte
		for i := int64(0); i < recs.Count; i++ {
			kb = b.AppendKey(kb[:0], i)
			if err := s.Load(keyView(kb), b.Fields(i)); err != nil {
				return fmt.Errorf("store: load record %d (%s): %w", i, kb, err)
			}
		}
		return nil
	}
	fanout = min(fanout, nl.Nodes())
	if fanout <= 1 {
		loadPart(nl, recs, 0, 1)
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < fanout; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loadPart(nl, recs, w, fanout)
		}()
	}
	wg.Wait()
	return nil
}

// loadPart is worker w of fanout: it loads and seals the engines i with
// i % fanout == w.
func loadPart(s NodeLoader, recs Records, w, fanout int) {
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
