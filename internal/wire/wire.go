// Package wire provides the sticky-error varint encoder/decoder the
// snapshot codecs are built on (internal/matrix and internal/core persist
// summaries with it). Values are encoded as unsigned varints; signed
// values use zigzag encoding. A Writer or Reader records the first error
// and turns every subsequent operation into a no-op, so codec code can
// encode whole structures and check the error once.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Writer encodes varint-based records onto an io.Writer.
type Writer struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	n   int64
	err error
}

// NewWriter returns a buffered Writer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

// Written returns the number of bytes written so far (pre-flush bytes
// included).
func (w *Writer) Written() int64 { return w.n }

// Flush flushes buffered output and returns the first error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	nn, err := w.w.Write(w.buf[:n])
	w.n += int64(nn)
	w.err = err
}

// U32 writes a 32-bit unsigned value as a varint.
func (w *Writer) U32(v uint32) { w.U64(uint64(v)) }

// Int writes a non-negative int as a varint.
func (w *Writer) Int(v int) {
	if v < 0 {
		if w.err == nil {
			w.err = fmt.Errorf("wire: negative int %d", v)
		}
		return
	}
	w.U64(uint64(v))
}

// I64 writes a signed value with zigzag encoding.
func (w *Writer) I64(v int64) {
	w.U64(uint64(v<<1) ^ uint64(v>>63))
}

// Bool writes a boolean as one varint.
func (w *Writer) Bool(v bool) {
	if v {
		w.U64(1)
	} else {
		w.U64(0)
	}
}

// Bytes writes a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	if w.err != nil {
		return
	}
	n, err := w.w.Write(b)
	w.n += int64(n)
	w.err = err
}

// Reader decodes varint-based records from an io.Reader.
type Reader struct {
	r   *bufio.Reader
	err error
}

// NewReader returns a buffered Reader.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// U64 reads an unsigned varint (0 after an error).
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	r.fail(err)
	return v
}

// U32 reads a 32-bit unsigned value, failing on overflow.
func (r *Reader) U32() uint32 {
	v := r.U64()
	if v > 0xffffffff {
		r.fail(fmt.Errorf("wire: value %d overflows uint32", v))
		return 0
	}
	return uint32(v)
}

// Int reads a non-negative int, failing on overflow.
func (r *Reader) Int() int {
	v := r.U64()
	if v > uint64(int(^uint(0)>>1)) {
		r.fail(fmt.Errorf("wire: value %d overflows int", v))
		return 0
	}
	return int(v)
}

// I64 reads a zigzag-encoded signed value.
func (r *Reader) I64() int64 {
	v := r.U64()
	return int64(v>>1) ^ -int64(v&1)
}

// Bool reads a boolean, failing on values other than 0 or 1.
func (r *Reader) Bool() bool {
	switch r.U64() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("wire: invalid boolean"))
		return false
	}
}

// Bytes reads a length-prefixed byte string, rejecting lengths above max
// (a guard against corrupted inputs allocating unbounded memory).
func (r *Reader) Bytes(max int) []byte {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	if n > max {
		r.fail(fmt.Errorf("wire: byte string of %d exceeds limit %d", n, max))
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.fail(err)
		return nil
	}
	return b
}

// Expect reads a varint and fails unless it equals want; used for format
// tags and versions.
func (r *Reader) Expect(want uint64, what string) {
	if got := r.U64(); r.err == nil && got != want {
		r.fail(fmt.Errorf("wire: bad %s: got %d, want %d", what, got, want))
	}
}
