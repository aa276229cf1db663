// Package store defines the common interface implemented by the six
// benchmarked data store models, plus the record shape of the APM use case:
// a 25-byte key and five 10-byte value fields (75 bytes raw, paper §3).
package store

import (
	"errors"

	"repro/internal/hashring"
	"repro/internal/sim"
	"repro/internal/slab"
)

// NumFields is the number of value fields per record.
const NumFields = 5

// FieldBytes is the size of each value field.
const FieldBytes = 10

// KeyBytes is the key length.
const KeyBytes = 25

// RawRecordBytes is the raw payload per record (key excluded, as in the
// paper's "700 MB of raw data per node" for 10M records).
const RawRecordBytes = NumFields*FieldBytes + KeyBytes

// Fields is a record's value fields, in the materialized form write
// paths build (Insert/Update/Load take Fields).
type Fields [][]byte

// FieldsView is the read-side counterpart: an allocation-free, read-only
// view of a record's field values, backed by a store-owned slab region
// (see package slab). Read and Scan return views so a point read over
// slab-backed engines touches no per-record heap objects; copy a field
// out (Field, then append) only when its bytes must outlive the
// operation.
type FieldsView = slab.FieldsView

// Record is a key with a view of its fields: the engines' scan row.
type Record = slab.Entry

// Key formats record number i as the fixed-width 25-byte benchmark key.
// Like YCSB's default (insertorder=hashed), the record number is hashed so
// that key ranges are uniformly loaded even though records are inserted in
// sequence; fixed-width zero-padded decimals make lexicographic order equal
// numeric order, which ordered stores (HBase) rely on. Every simulated
// operation builds at least one key, so the digits are written directly
// into a fixed buffer (a 21-digit zero-padded uint64 after the "user"
// prefix) instead of going through fmt.
func Key(i int64) string {
	var b [KeyBytes]byte
	writeKey(&b, i)
	return string(b[:])
}

// AppendKey appends record i's key to dst and returns the extended slice:
// Key without the string allocation. Hot loops (the YCSB runner's
// per-client operation loop, the load loop) keep one buffer and rebuild it
// per operation; since stores copy key bytes on ingest (see Store), that
// removes the last per-operation allocation of the insert path.
func AppendKey(dst []byte, i int64) []byte {
	var b [KeyBytes]byte
	writeKey(&b, i)
	return append(dst, b[:]...)
}

func writeKey(b *[KeyBytes]byte, i int64) {
	b[0], b[1], b[2], b[3] = 'u', 's', 'e', 'r'
	// Fmix64 is bijective: distinct record numbers get distinct keys.
	v := hashring.Fmix64(uint64(i))
	// Two digits per step from a pair table halve the dependent chain of
	// divisions: 21 digits are 10 pairs plus a leading digit.
	for j := KeyBytes - 2; j >= 5; j -= 2 {
		d := v % 100 * 2
		v /= 100
		b[j], b[j+1] = digitPairs[d], digitPairs[d+1]
	}
	b[4] = '0' + byte(v) // v < 10: a uint64 has at most 20 digits
}

// digitPairs holds "00".."99" back to back.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// MakeFields builds a deterministic 5x10-byte field set for record i.
func MakeFields(i int64) Fields { return MakeFieldsSized(i, FieldBytes) }

// MakeFieldsSized builds a deterministic field set with fieldBytes bytes per
// field (0 or negative means the default FieldBytes), for workloads that
// vary record size. The default size reproduces MakeFields exactly: nine
// zero-padded digits of i then the field index; larger fields repeat that
// 10-byte pattern, so byte accounting scales without new entropy. All
// fields share one backing slab, so a record costs 2 allocations (header
// slice + slab) instead of the historical 6.
func MakeFieldsSized(i int64, fieldBytes int) Fields {
	return FillFields(nil, i, fieldBytes)
}

// FillFields is MakeFieldsSized writing into a caller-owned buffer: when
// dst has NumFields entries each with capacity for fieldBytes bytes, the
// field patterns are written in place and no allocation happens. A nil or
// mis-shaped dst is (re)built as a fresh slab. It returns the filled
// buffer, which callers keep for the next record.
//
// Reusing one buffer across operations is sound because stores copy field
// bytes on ingest (see Store).
func FillFields(dst Fields, i int64, fieldBytes int) Fields {
	if fieldBytes <= 0 {
		fieldBytes = FieldBytes
	}
	fit := len(dst) == NumFields
	if fit {
		for _, f := range dst {
			if cap(f) < fieldBytes {
				fit = false
				break
			}
		}
	}
	if !fit {
		dst = make(Fields, NumFields)
		slab := make([]byte, NumFields*fieldBytes)
		for j := range dst {
			dst[j] = slab[j*fieldBytes : (j+1)*fieldBytes : (j+1)*fieldBytes]
		}
	}
	var pat [FieldBytes]byte
	v := i % 1e9
	if v < 0 {
		v = -v
	}
	for k := FieldBytes - 2; k >= 0; k-- {
		pat[k] = '0' + byte(v%10)
		v /= 10
	}
	for j := range dst {
		pat[FieldBytes-1] = '0' + byte(j)
		b := dst[j][:fieldBytes]
		for k := 0; k < len(b); k += FieldBytes {
			copy(b[k:], pat[:])
		}
		dst[j] = b
	}
	return dst
}

// Clone returns a deep copy of f (headers and bytes). Write paths that
// retain fields beyond the operation's return — e.g. a mutation applied
// asynchronously after the client is acknowledged — must clone first when
// the caller may be reusing a FillFields buffer.
func (f Fields) Clone() Fields {
	if f == nil {
		return nil
	}
	out := make(Fields, len(f))
	total := 0
	for _, v := range f {
		total += len(v)
	}
	slab := make([]byte, 0, total)
	for i, v := range f {
		slab = append(slab, v...)
		out[i] = slab[len(slab)-len(v) : len(slab) : len(slab)]
	}
	return out
}

// ErrNotFound is returned when a read misses.
var ErrNotFound = errors.New("store: key not found")

// ErrScansUnsupported is returned by stores without scan support (the
// Voldemort YCSB client in the paper).
var ErrScansUnsupported = errors.New("store: scans not supported")

// ErrUnavailable is returned when the node(s) that must serve an operation
// are down (fault injection) and no replica can fail over. Clients should
// back off before retrying: the failure is instant, so a tight retry loop
// would not advance virtual time.
var ErrUnavailable = errors.New("store: node unavailable")

// ScanStatsReporter is implemented by stores whose engines keep scan-path
// counters: how many sstables paid a positioning charge and how many were
// pruned by their key range before charging anything. The harness's
// -memstats diagnostics surface them per cell.
type ScanStatsReporter interface {
	ScanStats() (positioned, pruned int64)
}

// ScanStatsOf reports s's scan-path counters, or ok=false if the store
// does not expose them.
func ScanStatsOf(s Store) (positioned, pruned int64, ok bool) {
	r, isR := s.(ScanStatsReporter)
	if !isR {
		return 0, 0, false
	}
	positioned, pruned = r.ScanStats()
	return positioned, pruned, true
}

// Store is a simulated data store deployed across a cluster. All timed
// methods run inside a simulation process and advance virtual time by the
// full client-observed operation latency.
//
// Stores copy on ingest: Insert, Update and LoadNode must copy key and
// field bytes before retaining them, and Read and Scan must not retain the
// lookup key. Callers rely on this to reuse one AppendKey buffer and one
// FillFields buffer across operations, so a store that keeps caller bytes
// past an operation's return (an asynchronous replica write, say) clones
// them first.
type Store interface {
	// Name identifies the system ("cassandra", "hbase", ...).
	Name() string
	// Insert appends a new record (APM data is append-only).
	Insert(p *sim.Proc, key string, f Fields) error
	// Update overwrites an existing record.
	Update(p *sim.Proc, key string, f Fields) error
	// Read fetches all fields of one record. The returned view aliases
	// store-owned memory and is valid until the next operation against
	// the store.
	Read(p *sim.Proc, key string) (FieldsView, error)
	// Scan returns up to count records with distinct keys >= start, in
	// ascending key order. All virtual time the scan costs is charged
	// before Scan returns. The records' Fields views alias store-owned
	// memory and, like Read's, are valid until the next operation against
	// the store.
	Scan(p *sim.Proc, start string, count int) ([]Record, error)
	// Nodes, LoadNodes, LoadNode and SealNode are the load phase, which
	// LoadAll drives under its contract: it populates the store before a
	// measured run without consuming virtual time, while disk and memory
	// accounting still happen. Every store model is a set of per-node
	// engines that share no mutable state (Cassandra replica trees, HBase
	// regions, MySQL shards, Voldemort servers, Redis instances, VoltDB
	// partition sites), so the load splits into routing (LoadNodes) and
	// applying on one engine (LoadNode), and loaders that give each
	// engine to one worker need no locks.
	//
	// Nodes is the number of per-node engines, indexed 0..Nodes()-1.
	Nodes() int
	// LoadNodes appends to dst the engines a load of key writes and
	// returns the extended slice.
	LoadNodes(dst []int, key string) []int
	// LoadNode loads the record into engine i only. Calls for distinct
	// engines may run concurrently.
	LoadNode(i int, key string, f Fields)
	// SealNode ends engine i's load phase, building any structure the
	// engine defers until first use (the B-tree stores' bulk build, the
	// LSM stores' deferred table build), so the build runs on the load
	// worker. Stores whose engines defer nothing do nothing.
	SealNode(i int)
	// DiskUsage returns durable bytes across all nodes.
	DiskUsage() int64
	// SlabBytes returns the bytes of slab-backed record state (keys,
	// field payloads, index arenas) the store retains across all nodes;
	// the harness's -memstats diagnostics attribute host memory with it.
	SlabBytes() int64
}
