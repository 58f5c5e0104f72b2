package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// fuzzMaxBytes bounds Bytes reads in the fuzz target, mirroring how real
// decoders always pass a cap.
const fuzzMaxBytes = 1 << 16

// FuzzWireReader drives a Reader over arbitrary bytes with an arbitrary op
// sequence: the decoder must never panic; errors must be sticky (every
// read after a failure is a zero value, not garbage); every varint it reads
// must be the one binary.ReadUvarint reads over the same bytes, and a
// varint must fail as short exactly where ReadUvarint fails; and every
// value successfully decoded must re-encode through Writer and decode back
// identical — encode∘decode is the identity on values even when the
// original input used non-canonical varints.
func FuzzWireReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, []byte{})
	f.Add([]byte{0, 0, 0}, []byte{0x80, 0x80, 0x01, 0x05, 0xff})
	f.Add([]byte{5, 0}, []byte{0x03, 'a', 'b', 'c', 0x2a})
	f.Add([]byte{4, 4, 4}, []byte{0x00, 0x01, 0x02})
	f.Add([]byte{3, 3}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, ops []byte, data []byte) {
		type read struct {
			op byte
			u  uint64
			i  int64
			b  bool
			bs []byte
		}
		r := NewReader(data)
		var reads []read
		for _, op := range ops {
			op %= 6
			rd := read{op: op}
			// Every op opens with one varint: ReadUvarint's reading of it.
			want, wantErr := binary.ReadUvarint(bytes.NewReader(data[len(data)-r.Len():]))
			switch op {
			case 0:
				rd.u = r.U64()
			case 1:
				rd.u = uint64(r.U32())
			case 2:
				rd.u = uint64(r.Int())
			case 3:
				rd.i = r.I64()
			case 4:
				rd.b = r.Bool()
			case 5:
				rd.bs = bytes.Clone(r.Bytes(fuzzMaxBytes))
			}
			if (wantErr != nil) != errors.Is(r.Err(), errShort) {
				t.Fatalf("read %d: ReadUvarint err = %v, Reader err = %v", len(reads), wantErr, r.Err())
			}
			if r.Err() != nil {
				// Sticky failure: later reads must return zero values.
				if got := r.U64(); got != 0 {
					t.Fatalf("U64 after error = %d, want 0", got)
				}
				if got := r.Bytes(fuzzMaxBytes); got != nil {
					t.Fatalf("Bytes after error = %v, want nil", got)
				}
				break
			}
			// The varint each op opened with, as the Reader decoded it.
			got := rd.u
			switch op {
			case 3:
				got = uint64(rd.i<<1) ^ uint64(rd.i>>63)
			case 4:
				got = 0
				if rd.b {
					got = 1
				}
			case 5:
				got = uint64(len(rd.bs))
			}
			if got != want {
				t.Fatalf("read %d (op %d): Reader decodes %d, ReadUvarint %d", len(reads), op, got, want)
			}
			reads = append(reads, rd)
		}
		if len(reads) == 0 {
			return
		}
		// Re-encode every successfully decoded value and read it back.
		var w Writer
		for _, rd := range reads {
			switch rd.op {
			case 0:
				w.U64(rd.u)
			case 1:
				w.U32(uint32(rd.u))
			case 2:
				w.Int(int(rd.u))
			case 3:
				w.I64(rd.i)
			case 4:
				w.Bool(rd.b)
			case 5:
				w.Bytes(rd.bs)
			}
		}
		r2 := NewReader(w)
		for k, rd := range reads {
			switch rd.op {
			case 0:
				if got := r2.U64(); got != rd.u {
					t.Fatalf("read %d: U64 = %d, want %d", k, got, rd.u)
				}
			case 1:
				if got := r2.U32(); uint64(got) != rd.u {
					t.Fatalf("read %d: U32 = %d, want %d", k, got, rd.u)
				}
			case 2:
				if got := r2.Int(); uint64(got) != rd.u {
					t.Fatalf("read %d: Int = %d, want %d", k, got, rd.u)
				}
			case 3:
				if got := r2.I64(); got != rd.i {
					t.Fatalf("read %d: I64 = %d, want %d", k, got, rd.i)
				}
			case 4:
				if got := r2.Bool(); got != rd.b {
					t.Fatalf("read %d: Bool = %v, want %v", k, got, rd.b)
				}
			case 5:
				if got := r2.Bytes(fuzzMaxBytes); !bytes.Equal(got, rd.bs) {
					t.Fatalf("read %d: Bytes = %v, want %v", k, got, rd.bs)
				}
			}
			if err := r2.Err(); err != nil {
				t.Fatalf("read %d: re-decode: %v", k, err)
			}
		}
		if r2.Len() != 0 {
			t.Fatalf("re-decode left %d bytes", r2.Len())
		}
	})
}
