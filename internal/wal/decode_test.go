package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"higgs/internal/stream"
)

// decodeRecordWire is the payload decoder as it was before decodeRecord
// parsed bytes in place, kept as FuzzDecodeRecord's reference: sticky
// errors and a fresh edge slice sized by the record's count. It reads its
// varints with binary.ReadUvarint over a bytes.Reader, so it shares no code
// with the wire.Reader decodeRecord runs on.
func decodeRecordWire(payload []byte) (Record, error) {
	r := bytes.NewReader(payload)
	var err error
	u64 := func() uint64 {
		if err != nil {
			return 0
		}
		v, e := binary.ReadUvarint(r)
		if e != nil {
			err = e
			return 0
		}
		return v
	}
	i64 := func() int64 {
		v := u64()
		return int64(v>>1) ^ -int64(v&1)
	}
	edge := func() stream.Edge { return stream.Edge{S: u64(), D: u64(), W: i64(), T: i64()} }
	typ := RecordType(u64())
	if err != nil {
		return Record{}, fmt.Errorf("record type: %w", err)
	}
	switch typ {
	case RecordEdges:
		first, n := u64(), u64()
		if err != nil {
			return Record{}, fmt.Errorf("record header: %w", err)
		}
		if first == 0 || n == 0 || n > maxRecordBytes/4 {
			return Record{}, fmt.Errorf("record header out of range (first=%d count=%d)", first, n)
		}
		edges := make([]stream.Edge, n)
		for i := range edges {
			edges[i] = edge()
		}
		if err != nil {
			return Record{}, fmt.Errorf("record edges: %w", err)
		}
		return Record{Type: RecordEdges, FirstSeq: first, Edges: edges}, nil
	case RecordExpire:
		seq, cutoff := u64(), i64()
		if err != nil {
			return Record{}, fmt.Errorf("expire record: %w", err)
		}
		if seq == 0 {
			return Record{}, fmt.Errorf("expire record header out of range (seq=0)")
		}
		return Record{Type: RecordExpire, FirstSeq: seq, Cutoff: cutoff}, nil
	case RecordDelete:
		seq, e := u64(), edge()
		if err != nil {
			return Record{}, fmt.Errorf("delete record: %w", err)
		}
		if seq == 0 {
			return Record{}, fmt.Errorf("delete record header out of range (seq=0)")
		}
		return Record{Type: RecordDelete, FirstSeq: seq, Edge: e}, nil
	default:
		return Record{}, fmt.Errorf("unknown record type %d", uint8(typ))
	}
}

// amplified is a 6-byte edge-batch payload (type 1, first sequence 1)
// claiming maxRecordBytes/4 edges: the count the old decoder sized a
// 512 MiB slice by before reading a single edge.
var amplified = binary.AppendUvarint([]byte{byte(RecordEdges), 1}, maxRecordBytes/4)

// streamWith frames payloads, each under a valid length and CRC, behind
// the segment header.
func streamWith(payloads ...[]byte) []byte {
	out := bytes.Clone(header)
	for _, p := range payloads {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
		out = append(out, p...)
	}
	return out
}

// overclaimed reports whether payload is an edge batch whose header parses
// and claims more edges than the rest of the payload can hold at four
// bytes an edge — the payloads decodeRecord refuses before sizing
// anything by the count.
func overclaimed(payload []byte) bool {
	r := bytes.NewReader(payload)
	typ, err1 := binary.ReadUvarint(r)
	_, err2 := binary.ReadUvarint(r)
	n, err3 := binary.ReadUvarint(r)
	return errors.Join(err1, err2, err3) == nil && RecordType(typ) == RecordEdges && n > uint64(r.Len())/4
}

// TestDecodeRecordRefusesCountBeyondPayload: a count the payload cannot
// hold is refused as badPayload, under a valid CRC (a /repl/wal response
// body can carry one), without allocating anything near what it claims.
func TestDecodeRecordRefusesCountBeyondPayload(t *testing.T) {
	if len(amplified) != 6 {
		t.Fatalf("the amplified payload is %d bytes, want 6", len(amplified))
	}
	in := streamWith(amplified)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, off, err := framesOf(in)
	runtime.ReadMemStats(&after)
	var class malformed
	if !errors.As(err, &class) || class != badPayload || off != int64(len(header)) {
		t.Fatalf("ReadFrames = offset %d, %v; want %d, %q", off, err, len(header), badPayload)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing a 6-byte payload allocated %d bytes, want < 1 MiB", grew)
	}
	// The bound refuses only what cannot be there: an edge of four one-byte
	// varints decodes, three bytes are a short payload.
	four := binary.AppendUvarint([]byte{byte(RecordEdges), 1}, 1)
	if rec, err := decodeRecord(append(four, 1, 2, 3, 4), nil); err != nil || len(rec.Edges) != 1 {
		t.Fatalf("a one-edge batch in four bytes = %+v, %v; want it decoded", rec, err)
	}
	if _, err := decodeRecord(append(four, 1, 2, 3), nil); err == nil {
		t.Fatal("a one-edge batch in three bytes decoded")
	}
}

// TestReadFramesBoundsFrameByInput: a frame head that claims the largest
// payload a record may have, with no payload after it, fails as a torn
// payload without allocating anything near the claim — the frame buffer
// grows as payload bytes arrive, so a 14-byte stream (a /repl/wal body can
// be one) costs what its bytes do.
func TestReadFramesBoundsFrameByInput(t *testing.T) {
	in := binary.LittleEndian.AppendUint32(bytes.Clone(header), maxRecordBytes)
	in = binary.LittleEndian.AppendUint32(in, 0)
	if len(in) != 14 {
		t.Fatalf("the stream is %d bytes, want 14", len(in))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, off, err := framesOf(in)
	runtime.ReadMemStats(&after)
	var class malformed
	if !errors.As(err, &class) || class != tornPayload || off != int64(len(header)) {
		t.Fatalf("ReadFrames = offset %d, %v; want %d, %q", off, err, len(header), tornPayload)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a 14-byte stream allocated %d bytes, want < 1 MiB", grew)
	}
}

// FuzzDecodeRecord holds decodeRecord to the decoder it replaced: on any
// payload both accept or both refuse, and what they accept is the same
// record — decoded into a dirty buffer, so nothing stale may show through.
// The one departure is named: an edge count the payload cannot hold
// (overclaimed). The reference refuses it too, but only after sizing a
// slice by the count — up to 512 MiB for a 6-byte payload — so it is not
// run there; decodeRecord must refuse it up front.
func FuzzDecodeRecord(f *testing.F) {
	for _, seg := range [][]byte{
		fuzzSeedV2(f),
		func() []byte {
			_, seg := streamOf(f, Record{Type: RecordEdges, Edges: edges(0, 2)}, Record{Type: RecordDelete, Edge: edge(1)})
			return seg
		}(),
	} {
		if _, err := ReadFrames(bytes.NewReader(seg), func(_ Record, frame []byte) error {
			f.Add(bytes.Clone(frame[frameHeadLen:]))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(amplified)
	// A type varint that truncates to RecordExpire, trailing bytes after a
	// record, and a sequence varint that overflows 64 bits.
	f.Add(binary.AppendUvarint(nil, 256+uint64(RecordExpire)))
	f.Add([]byte{byte(RecordExpire), 1, 3, 0xff})
	f.Add([]byte{byte(RecordDelete), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02})
	f.Fuzz(func(t *testing.T, payload []byte) {
		buf := edges(100, 4)
		got, err := decodeRecord(payload, buf)
		if overclaimed(payload) {
			if err == nil {
				t.Fatalf("decodeRecord(%x) accepted a count beyond its payload: %+v", payload, got)
			}
			return
		}
		want, wantErr := decodeRecordWire(payload)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeRecord(%x): err = %v, reference err = %v", payload, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeRecord(%x) = %+v, reference %+v", payload, got, want)
		}
	})
}

// TestReadFramesAllocs pins in-place decoding: ReadFrames reuses one frame
// buffer and one edge buffer across frames, so a 1,000-record segment of
// 256-edge batches costs the same allocations as a 10-record one.
func TestReadFramesAllocs(t *testing.T) {
	batch := edges(0, 256)
	segment := func(records int) []byte {
		recs := make([]Record, records)
		for i := range recs {
			recs[i] = Record{Type: RecordEdges, Edges: batch}
		}
		_, seg := streamOf(t, recs...)
		return seg
	}
	allocs := func(seg []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := ReadFrames(bytes.NewReader(seg), func(Record, []byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(segment(10)), allocs(segment(1000)); small != large {
		t.Fatalf("ReadFrames allocates %v times over 10 records and %v over 1,000: something is allocated per record", small, large)
	}
}
