package core

import (
	"testing"

	"higgs/internal/stream"
)

// FuzzSnapshotRead feeds arbitrary bytes to the snapshot decoder; it must
// reject them with an error — never panic, hang, or over-allocate.
func FuzzSnapshotRead(f *testing.F) {
	// Seed with a valid snapshot and some prefixes of it.
	s := MustNew(DefaultConfig())
	for _, e := range paperStream() {
		s.Insert(e)
	}
	valid := s.AppendSnapshot(nil)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:4])
	f.Add([]byte{})
	f.Add([]byte("HIGGS"))
	// A few structured corruptions.
	for _, i := range []int{0, 8, 20, len(valid) - 2} {
		c := append([]byte(nil), valid...)
		c[i] ^= 0xff
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := Decode(data)
		if err != nil {
			return
		}
		// If it decoded, it must be usable.
		sum.Insert(stream.Edge{S: 1, D: 2, W: 1, T: sum.lastT + 1})
		_ = sum.EdgeWeight(1, 2, 0, 1<<40)
		_ = sum.Stats()
	})
}

// FuzzInsertAndQuery drives raw fuzzed edges through a summary; the
// summary must stay internally consistent for any input.
func FuzzInsertAndQuery(f *testing.F) {
	f.Add(uint64(1), uint64(2), int64(1), int64(10), int64(0), int64(20))
	f.Add(uint64(0), uint64(0), int64(-5), int64(-3), int64(5), int64(2))
	f.Fuzz(func(t *testing.T, sv, dv uint64, w, ts, qlo, qhi int64) {
		s := MustNew(DefaultConfig())
		s.Insert(stream.Edge{S: sv, D: dv, W: w, T: ts})
		s.Insert(stream.Edge{S: dv, D: sv, W: w, T: ts + 1})
		got := s.EdgeWeight(sv, dv, qlo, qhi)
		if qlo <= ts && ts <= qhi && got < w && w > 0 {
			t.Fatalf("undercount: %d < %d", got, w)
		}
		s.Finalize()
		_ = s.Stats()
	})
}
