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
	"higgs/internal/wire"
)

// decodeRecordWire is the payload decoder as it was before decodeRecord
// parsed bytes in place, kept verbatim (bar its name and getEdgeWire's) as
// FuzzDecodeRecord's reference: a sticky-error wire.Reader over a
// bytes.Reader, and a fresh edge slice sized by the record's count.
func decodeRecordWire(payload []byte) (Record, error) {
	r := wire.NewReader(bytes.NewReader(payload))
	typ := RecordType(r.U64())
	if err := r.Err(); err != nil {
		return Record{}, fmt.Errorf("record type: %w", err)
	}
	switch typ {
	case RecordEdges:
		first := r.U64()
		n := r.Int()
		if err := r.Err(); err != nil {
			return Record{}, fmt.Errorf("record header: %w", err)
		}
		if first == 0 || n <= 0 || n > maxRecordBytes/4 {
			return Record{}, fmt.Errorf("record header out of range (first=%d count=%d)", first, n)
		}
		edges := make([]stream.Edge, n)
		for i := range edges {
			edges[i] = getEdgeWire(r)
		}
		if err := r.Err(); err != nil {
			return Record{}, fmt.Errorf("record edges: %w", err)
		}
		return Record{Type: RecordEdges, FirstSeq: first, Edges: edges}, nil
	case RecordExpire:
		seq := r.U64()
		cutoff := r.I64()
		if err := r.Err(); err != nil {
			return Record{}, fmt.Errorf("expire record: %w", err)
		}
		if seq == 0 {
			return Record{}, fmt.Errorf("expire record header out of range (seq=0)")
		}
		return Record{Type: RecordExpire, FirstSeq: seq, Cutoff: cutoff}, nil
	case RecordDelete:
		seq := r.U64()
		e := getEdgeWire(r)
		if err := r.Err(); err != nil {
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

func getEdgeWire(r *wire.Reader) stream.Edge {
	return stream.Edge{S: r.U64(), D: r.U64(), W: r.I64(), T: r.I64()}
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
	p := cursor{b: payload}
	typ, _, n := RecordType(p.u64()), p.u64(), p.u64()
	return !p.bad && typ == RecordEdges && n > uint64(len(p.b))/4
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
