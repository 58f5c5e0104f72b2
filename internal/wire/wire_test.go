package wire

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U64(0)
	w.U64(math.MaxUint64)
	w.U32(42)
	w.Int(123456)
	w.I64(-1)
	w.I64(math.MinInt64)
	w.I64(math.MaxInt64)
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte("snapshot"))
	r := NewReader(w)
	if r.U64() != 0 || r.U64() != math.MaxUint64 {
		t.Fatal("u64 round trip failed")
	}
	if r.U32() != 42 || r.Int() != 123456 {
		t.Fatal("u32/int round trip failed")
	}
	if r.I64() != -1 || r.I64() != math.MinInt64 || r.I64() != math.MaxInt64 {
		t.Fatal("i64 round trip failed")
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip failed")
	}
	if string(r.Bytes(100)) != "snapshot" {
		t.Fatal("bytes round trip failed")
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Len())
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(v int64) bool {
		var w Writer
		w.I64(v)
		r := NewReader(w)
		return r.I64() == v && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStickyErrors: the first error stays, and every read after it is a
// zero value with no bytes left.
func TestStickyErrors(t *testing.T) {
	var w Writer
	w.U64(7) // an invalid boolean
	w.U64(5)
	w.Bytes([]byte("x"))
	r := NewReader(w)
	r.Bool()
	first := r.Err()
	if first == nil {
		t.Fatal("bool=7 accepted")
	}
	if r.U64() != 0 || r.Bytes(10) != nil || r.Len() != 0 {
		t.Fatal("a read after the error returned data")
	}
	if r.Err() != first {
		t.Fatalf("error changed from %v to %v", first, r.Err())
	}

	// A negative int encodes a value Int refuses.
	w = nil
	w.Int(-1)
	r = NewReader(w)
	r.Int()
	if r.Err() == nil {
		t.Fatal("negative int accepted")
	}
}

func TestReaderGuards(t *testing.T) {
	read := func(w Writer, op func(*Reader)) error {
		r := NewReader(w)
		op(&r)
		return r.Err()
	}
	u64 := func(v uint64) Writer {
		var w Writer
		w.U64(v)
		return w
	}
	for name, err := range map[string]error{
		"empty input":        read(nil, func(r *Reader) { r.U64() }),
		"truncated varint":   read(Writer{0x80}, func(r *Reader) { r.U64() }),
		"64-bit overflow":    read(Writer{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader) { r.U64() }),
		"eleven-byte varint": read(Writer{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, func(r *Reader) { r.U64() }),
		"u32 overflow":       read(u64(1<<40), func(r *Reader) { r.U32() }),
		"int overflow":       read(u64(math.MaxUint64), func(r *Reader) { r.Int() }),
		"invalid bool":       read(u64(7), func(r *Reader) { r.Bool() }),
		"oversized bytes":    read(append(u64(100), make([]byte, 100)...), func(r *Reader) { r.Bytes(10) }),
		"bytes past the end": read(append(u64(5), "abc"...), func(r *Reader) { r.Bytes(10) }),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestExpect(t *testing.T) {
	var w Writer
	w.U64(0xCAFE)
	w.U64(1)
	r := NewReader(w)
	r.Expect(0xCAFE, "magic")
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	r.Expect(2, "version")
	if r.Err() == nil {
		t.Fatal("mismatched expect accepted")
	}
}

// TestWritten: the encoder appends a value's shortest varint after what
// its slice already holds.
func TestWritten(t *testing.T) {
	w := Writer("ab")
	w.U64(300) // 2-byte varint
	if string(w) != "ab\xac\x02" {
		t.Fatalf("appended % x", []byte(w))
	}
}
