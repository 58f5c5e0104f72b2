// Package wire is the one varint codec of the snapshots and the WAL: an
// append encoder (Writer) and a cursor over encoded bytes (Reader), which
// the WAL's record decoder shares.
// Values are encoded as unsigned varints; signed values use zigzag
// encoding. A Reader records the first error and reads every later value
// as zero, so codec code can decode whole structures and check the error
// once.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Writer appends varint-based records to a byte slice; it cannot fail.
// Start one from nil or from a slice to append to (wire.Writer(b[:0])).
type Writer []byte

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) { *w = binary.AppendUvarint(*w, v) }

// U32 appends a 32-bit unsigned value as a varint.
func (w *Writer) U32(v uint32) { w.U64(uint64(v)) }

// Int appends a non-negative int as a varint. A negative v appends a value
// Reader.Int refuses.
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

// I64 appends a signed value with zigzag encoding.
func (w *Writer) I64(v int64) { *w = binary.AppendVarint(*w, v) }

// Bool appends a boolean as one varint.
func (w *Writer) Bool(v bool) {
	var b uint64
	if v {
		b = 1
	}
	w.U64(b)
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.Int(len(b))
	*w = append(*w, b...)
}

// errShort is the error of a varint that is cut short or overflows 64 bits.
// It is preallocated, so the varint read stays small enough to inline.
var errShort = errors.New("wire: short or overflowing varint")

// Reader is a cursor over encoded bytes. After the first error it holds no
// bytes, so every later read is a zero value.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a cursor over b. Bytes returns subslices of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// fail records the first error and drops the unread bytes.
func (r *Reader) fail(err error) {
	r.off = len(r.b)
	if r.err == nil {
		r.err = err
	}
}

// U64 reads an unsigned varint (0 after an error). It calls nothing that
// does not inline, so it inlines into the decoders; a one-byte value, most
// of every record, returns on the loop's first pass.
func (r *Reader) U64() uint64 {
	var v uint64
	var s uint
	for i, c := range r.b[r.off:] {
		if i == 9 && c > 1 {
			break // a tenth byte holds bit 63 alone
		}
		if c < 0x80 {
			r.off += i + 1
			return v | uint64(c)<<s
		}
		v |= uint64(c&0x7f) << s
		s += 7
	}
	r.fail(errShort)
	return 0
}

// U32 reads a 32-bit unsigned value, failing on overflow.
func (r *Reader) U32() uint32 { return uint32(r.upTo(math.MaxUint32, "uint32")) }

// Int reads a non-negative int, failing on overflow.
func (r *Reader) Int() int { return int(r.upTo(math.MaxInt, "int")) }

// upTo reads an unsigned varint, failing if it exceeds max.
func (r *Reader) upTo(max uint64, what string) uint64 {
	v := r.U64()
	if v > max {
		r.fail(fmt.Errorf("wire: value %d overflows %s", v, what))
		return 0
	}
	return v
}

// I64 reads a zigzag-encoded signed value.
func (r *Reader) I64() int64 {
	v := r.U64()
	return int64(v>>1) ^ -int64(v&1)
}

// Bool reads a boolean, failing on values other than 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U64()
	if v > 1 {
		r.fail(errors.New("wire: invalid boolean"))
	}
	return v == 1
}

// Bytes reads a length-prefixed byte string, refusing lengths above max or
// beyond the unread bytes. The result aliases the Reader's input.
func (r *Reader) Bytes(max int) []byte {
	n := r.Int()
	if n > min(max, r.Len()) {
		r.fail(fmt.Errorf("wire: byte string of %d exceeds limit %d or the %d bytes left", n, max, r.Len()))
	}
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off : r.off]
}

// Expect reads a varint and fails unless it equals want; used for format
// tags and versions.
func (r *Reader) Expect(want uint64, what string) {
	if got := r.U64(); r.err == nil && got != want {
		r.fail(fmt.Errorf("wire: bad %s: got %d, want %d", what, got, want))
	}
}
