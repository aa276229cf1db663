package slab

import (
	"math/bits"
	"strings"
)

// Rec locates one record in a Records store: its key bytes and then its
// field bytes, contiguous at Ref, with Meta packing keyLen(16) |
// fieldsLen(32) | shape(16), the shape an index into the store's
// ShapeTable. The memtable, the sstables, the B-tree and the load batch
// all hold records this way, so a record moves between them as these
// two words.
type Rec struct {
	Ref  Ref
	Meta uint64
}

// packRec packs a record's meta. It panics on a key longer than 64 KiB
// or a shape index past 16 bits, the two limits of the packing.
func packRec(ref Ref, keyLen, fieldsLen int, shape uint32) Rec {
	if keyLen > 0xffff {
		panic("slab: key longer than 64 KiB")
	}
	if shape > 0xffff {
		panic("slab: shape table overflow")
	}
	return Rec{Ref: ref, Meta: uint64(keyLen) | uint64(fieldsLen)<<16 | uint64(shape)<<48}
}

// KeyLen returns the key's length in bytes.
func (r Rec) KeyLen() int { return int(r.Meta & 0xffff) }

// FieldsLen returns the field bytes' total length.
func (r Rec) FieldsLen() int { return int(r.Meta >> 16 & 0xffffffff) }

// Shape returns the record's shape index.
func (r Rec) Shape() uint32 { return uint32(r.Meta >> 48) }

// Len returns the record's key and field bytes.
func (r Rec) Len() int { return r.KeyLen() + r.FieldsLen() }

// WithShape returns r with its shape index set to shape, for a record
// whose shape is interned again in another store.
func (r Rec) WithShape(shape uint32) Rec {
	return packRec(r.Ref, r.KeyLen(), r.FieldsLen(), shape)
}

// Records is a record store: the slab that holds the records' bytes and
// the shapes their field layouts are interned in. The zero value is
// empty and ready to use.
type Records struct {
	Data   Slab
	Shapes ShapeTable
}

// Append interns fields' layout, carves the key and field bytes as one
// region, copies both in and returns the record. The caller keeps its
// slices.
func (rs *Records) Append(key string, fields [][]byte) Rec {
	shape, n := rs.Shapes.Intern(fields)
	r := packRec(0, len(key), n, shape)
	r.Ref = rs.write(len(key)+n, key, fields)
	return r
}

// write carves n bytes and copies head and then fields into them.
func (rs *Records) write(n int, head string, fields [][]byte) Ref {
	ref, buf := rs.Data.Alloc(n)
	p := copy(buf, head)
	for _, f := range fields {
		p += copy(buf[p:], f)
	}
	return ref
}

// Replace overwrites r's fields and returns the record that now holds
// them. Fields of r's shape are written over r's in place and r is
// returned; any other layout gets a new region holding a copy of the key,
// so key and fields stay contiguous, and the old region is left to the
// slab. Key bytes are never overwritten, so views of r's key stay valid
// either way.
func (rs *Records) Replace(r Rec, fields [][]byte) Rec {
	shape, n := rs.Shapes.Intern(fields)
	if shape == r.Shape() {
		buf := rs.Data.View(r.Ref+Ref(r.KeyLen()), n)
		p := 0
		for _, f := range fields {
			p += copy(buf[p:], f)
		}
		return r
	}
	nr := packRec(0, r.KeyLen(), n, shape)
	nr.Ref = rs.write(r.KeyLen()+n, rs.Key(r), fields)
	return nr
}

// Key returns r's key as a zero-copy string view.
func (rs *Records) Key(r Rec) string { return rs.Data.String(r.Ref, r.KeyLen()) }

// Fields returns the view of r's field values.
func (rs *Records) Fields(r Rec) FieldsView {
	return FieldsView{data: rs.Data.View(r.Ref+Ref(r.KeyLen()), r.FieldsLen()), ends: rs.Shapes.Ends(r.Shape())}
}

// Entry returns r as a scan row.
func (rs *Records) Entry(r Rec) Entry { return Entry{Key: rs.Key(r), Fields: rs.Fields(r)} }

// batchChunk is a batch's full entry chunk length: 8,192 entries,
// 128 KiB. The first five chunks double up to it from 256 entries, so a
// small batch stays small, and firstChunks is the entries they hold.
const (
	batchChunk  = 8192
	firstChunks = batchChunk - batchChunk>>5
)

// Batch buffers the records of a bulk load in arrival order. Records are
// laid out as Records.Append lays them out, so a batch's slab and shapes
// are the ones a memtable or a B-tree fed the same records by Put would
// hold, and a table or tree built from the batch takes them over (Take).
// Entries are held in fixed chunks that never regrow or move; Take keeps
// them for the next batch, so a load that cuts many batches allocates
// entries once. The zero value is empty and ready to use.
type Batch struct {
	Records
	chunks [][]Rec
	n      int
	bytes  int64
}

// locate returns the chunk and slot of entry j.
func locate(j uint32) (c, i uint32) {
	if j < firstChunks {
		c = uint32(bits.Len32(j>>8+1) - 1)
		return c, j - (256<<c - 256)
	}
	j -= firstChunks
	return 5 + j/batchChunk, j % batchChunk
}

// Append buffers one record, copying its key and field bytes.
func (b *Batch) Append(key string, fields [][]byte) {
	c, i := locate(uint32(b.n))
	if int(c) == len(b.chunks) {
		size := batchChunk
		if c < 5 {
			size = 256 << c
		}
		b.chunks = append(b.chunks, make([]Rec, size))
	}
	r := b.Records.Append(key, fields)
	b.chunks[c][i] = r
	b.n++
	b.bytes += int64(r.Len())
}

// Len returns the number of records.
func (b *Batch) Len() int { return b.n }

// Bytes returns the records' key and field bytes.
func (b *Batch) Bytes() int64 { return b.bytes }

// At returns the j-th record to arrive.
func (b *Batch) At(j uint32) Rec {
	c, i := locate(j)
	return b.chunks[c][i]
}

// Sort fills items, which must hold Len() items, with the records' key
// prefixes in key order, each item's I the record's arrival index, and
// reports whether the keys are distinct.
func (b *Batch) Sort(items []PrefixItem) bool {
	j := 0
	for _, chunk := range b.chunks {
		for _, r := range chunk[:min(len(chunk), b.n-j)] {
			k := b.Key(r)
			items[j] = PrefixItem{Hi: KeyPrefix(k, 0), Lo: KeyPrefix(k, 8), I: uint32(j)}
			j++
		}
	}
	return SortByPrefix(items, func(x, y uint32) int {
		return strings.Compare(b.Key(b.At(x)), b.Key(b.At(y)))
	})
}

// Replay calls put with each record in arrival order, its fields as
// views of the batch's slab.
func (b *Batch) Replay(put func(key string, fields [][]byte)) {
	var fields [][]byte
	for j := range uint32(b.n) {
		r := b.At(j)
		v := b.Fields(r)
		fields = fields[:0]
		for f := range v.Len() {
			fields = append(fields, v.Field(f))
		}
		put(b.Key(r), fields)
	}
}

// Take hands the records' slab and shapes to the caller and empties the
// batch, keeping its entry chunks for the records that follow.
func (b *Batch) Take() Records {
	rs := b.Records
	b.Records, b.n, b.bytes = Records{}, 0, 0
	return rs
}
