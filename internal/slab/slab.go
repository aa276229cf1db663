// Package slab provides flat, offset-indexed byte storage for retained
// record state. The memtable, sstables and B-tree keep keys and field
// payloads in large append-only []byte chunks addressed by packed
// (chunk, offset) refs instead of per-record string/slice objects, so a
// 10M-record table is a handful of large pointer-free buffers to the
// garbage collector rather than tens of millions of scannable objects.
//
// The package has these pieces:
//
//   - Slab: a chunked append-only byte arena. Alloc carves a region and
//     returns a Ref; View/String recover the bytes later. Chunks are
//     never moved, so refs and views stay valid for the slab's lifetime.
//     Adopt shares another slab's chunks by reference, which is how a
//     compaction that drops nothing keeps its inputs' payloads in place.
//   - ShapeTable: an interner for field layouts. A record's per-field
//     lengths are stored once as a cumulative-end-offset slice shared by
//     every record with that shape, so uniform-schema workloads (the
//     benchmark's 5×90-byte rows) pay zero per-record layout storage.
//   - Records and Rec (record.go): the one record layout. A record is its
//     key bytes then its field bytes, contiguous in a Slab, and a Rec is
//     its ref plus keyLen(16) | fieldsLen(32) | shape(16) packed. The
//     memtable, the sstables and the B-tree all keep records this way,
//     and Records appends, reads and replaces them.
//   - Batch (record.go): the load batch. It buffers records in arrival
//     order for a bulk build, and SortByPrefix (sort.go) puts them in
//     key order; an LSM flush-sized cut and a B-tree build both take it.
//   - FieldsView and Entry: a read-only view of one record's field
//     values, its field bytes plus its shape's end offsets, and a scan
//     row, a key with that view. Records.Fields and Records.Entry build
//     them, so a read or a scan copies no record bytes.
package slab

import (
	"encoding/binary"
	"slices"
	"unsafe"
)

// KeyPrefix packs bytes [off, off+8) of k as a big-endian integer, zero
// padded. Zero-padded big-endian prefix order is a coarsening of
// lexicographic order — prefix(a) < prefix(b) implies a < b, and equal
// prefixes decide nothing either way — so ordered structures compare two
// of these in registers and fall back to byte-wise compares only on a
// double tie.
func KeyPrefix(k string, off int) uint64 {
	if off >= 0 && len(k)-off >= 8 {
		return binary.BigEndian.Uint64(unsafe.Slice(unsafe.StringData(k[off:]), 8))
	}
	var p uint64
	for i := 0; i < 8 && off+i < len(k); i++ {
		p |= uint64(k[off+i]) << (56 - 8*i)
	}
	return p
}

// Ref addresses a region inside a Slab: chunk index in the high 32 bits,
// byte offset within the chunk in the low 32. The zero Ref addresses the
// first byte of the first chunk, so a Ref is only meaningful alongside
// the length the caller carved.
type Ref uint64

// chunkBytes is the default chunk capacity. Large enough that chunk
// allocations amortize to ~zero per record, small enough that a nearly
// empty table wastes little. A slab's first chunks double up to it from
// chunkBytes/8 (64, 128, 256 KiB), so a small slab, such as a memtable
// that flushes at a few hundred KiB, is not one mostly empty chunk.
const chunkBytes = 512 << 10

// Slab is a chunked append-only byte arena. The zero value is ready to
// use. Not safe for concurrent use.
type Slab struct {
	chunks [][]byte
	// sealed counts the leading chunks Alloc must not write into: those
	// taken by Adopt.
	sealed int
	// allocated is the total capacity of all chunks, for footprint
	// reporting (apmbench -memstats).
	allocated int64
}

// Alloc carves n bytes and returns the region's ref plus the writable
// bytes. The region is never reclaimed or moved; abandoned regions
// (shape-changing replaces) are reclaimed only when the whole slab is
// dropped, the same arena semantics the PR-4 memtable had.
func (s *Slab) Alloc(n int) (Ref, []byte) {
	ci := len(s.chunks) - 1
	var c []byte
	if ci >= s.sealed {
		c = s.chunks[ci]
	}
	if ci < s.sealed || cap(c)-len(c) < n {
		size := chunkBytes
		if k := len(s.chunks); k < 3 {
			size >>= 3 - k
		}
		if n > size {
			size = n
		}
		c = make([]byte, 0, size)
		s.chunks = append(s.chunks, c)
		s.allocated += int64(size)
		ci++
	}
	off := len(c)
	c = c[: off+n : cap(c)]
	s.chunks[ci] = c
	return Ref(uint64(ci)<<32 | uint64(off)), c[off : off+n : off+n]
}

// Append copies b into the slab and returns its ref.
func (s *Slab) Append(b []byte) Ref {
	ref, dst := s.Alloc(len(b))
	copy(dst, b)
	return ref
}

// AppendString copies str into the slab without an intermediate []byte.
func (s *Slab) AppendString(str string) Ref {
	ref, dst := s.Alloc(len(str))
	copy(dst, str)
	return ref
}

// View returns the n bytes at ref. The slice aliases slab memory; treat
// it as read-only unless you own the region.
func (s *Slab) View(ref Ref, n int) []byte {
	c := s.chunks[ref>>32]
	off := uint32(ref)
	return c[off : int(off)+n : int(off)+n]
}

// String returns the n bytes at ref as a string without copying. Sound
// only for regions that are never overwritten (keys: the memtable and
// B-tree overwrite field bytes in place, never key bytes).
func (s *Slab) String(ref Ref, n int) string {
	if n == 0 {
		return ""
	}
	b := s.View(ref, n)
	return unsafe.String(unsafe.SliceData(b), n)
}

// Grow makes the next n bytes that Alloc carves fit in the open chunk:
// if it lacks room, Grow opens a chunk of exactly n bytes. A caller that
// knows how much it will copy in gets one chunk it fills completely.
func (s *Slab) Grow(n int) {
	ci := len(s.chunks) - 1
	if n <= 0 || ci >= s.sealed && cap(s.chunks[ci])-len(s.chunks[ci]) >= n {
		return
	}
	s.chunks = append(s.chunks, make([]byte, 0, n))
	s.allocated += int64(n)
}

// Adopt appends o's chunks to s by reference and returns the chunk base
// at which they now sit: a ref r into o addresses the same bytes in s as
// r + base<<32. Adopted chunks are sealed: s's next Alloc opens a fresh
// chunk, so s never writes into bytes o may still use. They keep their
// capacity, which Allocated counts, so it still matches the heap that s
// retains. The adopted bytes must not be overwritten afterwards through
// either slab (immutable sstable payloads).
func (s *Slab) Adopt(o *Slab) (base uint64) {
	base = uint64(len(s.chunks))
	s.chunks = append(s.chunks, o.chunks...)
	s.allocated += o.allocated
	s.sealed = len(s.chunks)
	return base
}

// Chunks returns the number of chunks, the base the next Adopt returns.
func (s *Slab) Chunks() int { return len(s.chunks) }

// Allocated returns the total chunk capacity in bytes, including regions
// carved and later abandoned. This is the slab's true heap footprint.
func (s *Slab) Allocated() int64 { return s.allocated }

// Reset drops all chunks, releasing them to the GC.
func (s *Slab) Reset() { *s = Slab{} }

// ShapeTable interns field layouts. A shape is the cumulative end offset
// of each field within a record's concatenated payload; records store a
// small shape index instead of per-field length headers. Steady-state
// workloads reuse one shape for millions of records, so Intern is a
// last-match check that almost always hits.
type ShapeTable struct {
	shapes [][]uint32
	last   uint32
}

// Intern returns the shape index for fields plus the total payload
// length. It allocates only when a never-before-seen layout appears.
func (t *ShapeTable) Intern(fields [][]byte) (uint32, int) {
	if int(t.last) < len(t.shapes) && endsMatch(t.shapes[t.last], fields) {
		return t.last, total(t.shapes[t.last])
	}
	for i, e := range t.shapes {
		if endsMatch(e, fields) {
			t.last = uint32(i)
			return t.last, total(e)
		}
	}
	e := make([]uint32, len(fields))
	n := uint32(0)
	for i, f := range fields {
		n += uint32(len(f))
		e[i] = n
	}
	t.shapes = append(t.shapes, e)
	t.last = uint32(len(t.shapes) - 1)
	return t.last, int(n)
}

// InternEnds is Intern for a layout already expressed as cumulative end
// offsets (re-interning a view from another slab during merges).
func (t *ShapeTable) InternEnds(ends []uint32) uint32 {
	if int(t.last) < len(t.shapes) && endsEqual(t.shapes[t.last], ends) {
		return t.last
	}
	for i, e := range t.shapes {
		if endsEqual(e, ends) {
			t.last = uint32(i)
			return t.last
		}
	}
	e := make([]uint32, len(ends))
	copy(e, ends)
	t.shapes = append(t.shapes, e)
	t.last = uint32(len(t.shapes) - 1)
	return t.last
}

// Ends returns the cumulative end offsets for a shape index.
func (t *ShapeTable) Ends(idx uint32) []uint32 { return t.shapes[idx] }

// Len returns the number of interned shapes.
func (t *ShapeTable) Len() int { return len(t.shapes) }

func endsMatch(ends []uint32, fields [][]byte) bool {
	if len(ends) != len(fields) {
		return false
	}
	n := uint32(0)
	for i, f := range fields {
		n += uint32(len(f))
		if ends[i] != n {
			return false
		}
	}
	return true
}

func endsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func total(ends []uint32) int {
	if len(ends) == 0 {
		return 0
	}
	return int(ends[len(ends)-1])
}

// Entry is one scan row: a key with a view of its field values, 64 bytes.
// The engines' scans return it, and stores pass it on as store.Record.
type Entry struct {
	Key    string
	Fields FieldsView
}

// FieldsView is a read-only view of one record's field values: the
// record's concatenated field bytes plus its shape's cumulative end
// offsets, shared by every record of that shape. Records.Fields builds
// it over a store's slab; View builds one over copied bytes. The zero
// value views zero fields.
type FieldsView struct {
	data []byte   // concatenated field payload
	ends []uint32 // cumulative end offsets, len = field count
}

// View copies fields into a view that owns its bytes: one payload buffer
// and one offsets slice. Stores hand out views of their slabs instead
// (Records.Fields); View is for a caller that holds a record as [][]byte.
func View(fields [][]byte) FieldsView {
	ends := make([]uint32, len(fields))
	n := uint32(0)
	for i, f := range fields {
		n += uint32(len(f))
		ends[i] = n
	}
	return FieldsView{data: slices.Concat(fields...), ends: ends}
}

// Len returns the number of fields.
func (v FieldsView) Len() int { return len(v.ends) }

// Field returns the i'th field's bytes. The slice aliases the record's
// backing store and must be treated as read-only; a later same-shape
// replace overwrites it in place (the memtable's documented "state as of
// the last positioning I/O" semantics).
func (v FieldsView) Field(i int) []byte {
	start := uint32(0)
	if i > 0 {
		start = v.ends[i-1]
	}
	return v.data[start:v.ends[i]:v.ends[i]]
}

// Bytes returns the total payload length across all fields.
func (v FieldsView) Bytes() int64 { return int64(total(v.ends)) }

// Materialize copies the fields out into a fresh [][]byte.
func (v FieldsView) Materialize() [][]byte {
	n := v.Len()
	if n == 0 {
		return nil
	}
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		out[i] = append([]byte(nil), v.Field(i)...)
	}
	return out
}
