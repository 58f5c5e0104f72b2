package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedV2 builds a real version-2 segment — edge batches interleaved
// with an expire record, written by the production Append path — and
// returns its on-disk bytes.
func fuzzSeedV2(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := l.Append(edges(0, 5), nil); err != nil {
		f.Fatal(err)
	}
	if _, err := l.AppendExpire(42, nil); err != nil {
		f.Fatal(err)
	}
	if _, err := l.Append(edges(5, 3), nil); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%020d%s", 1, segmentSuffix)))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// fuzzSeeds registers the corpus both fuzz targets start from: an intact
// segment and the version-1 segment Open refuses, their truncations (torn
// tails at every interesting boundary), a bare header, and an empty file.
func fuzzSeeds(f *testing.F) {
	v2 := fuzzSeedV2(f)
	v1 := v1Segment(f, edges(0, 4), edges(4, 2))
	f.Add(v2)
	f.Add(v1)
	hdr := len(headerBytes())
	for _, cut := range []int{0, hdr - 1, hdr, hdr + 3, hdr + frameHeadLen, len(v2) - 1} {
		if cut >= 0 && cut < len(v2) {
			f.Add(v2[:cut])
		}
	}
	f.Add(v1[:len(v1)-2])
	// One flipped payload byte: CRC must catch it.
	bad := bytes.Clone(v2)
	bad[len(bad)/2] ^= 0x40
	f.Add(bad)
}

// fuzzOpen writes data as the log's only segment (first sequence 1) and
// opens it. It reports the outcome; opening must never panic.
func fuzzOpen(t *testing.T, data []byte) (*Log, string, error) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, fmt.Sprintf("%020d%s", 1, segmentSuffix))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Dir: dir})
	return l, dir, err
}

// FuzzOpenSegment feeds arbitrary bytes to Open as a segment file and
// checks the documented crash-repair policy end to end: Open either
// refuses the segment (corruption is a hard error) or repairs its tail
// and yields a fully usable log — appendable, and reopenable with the
// same contents (repair is idempotent: a second Open finds a clean log).
func FuzzOpenSegment(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		l, dir, err := fuzzOpen(t, data)
		if err != nil {
			return // refused: acceptable for any mutated input
		}
		last := l.LastSeq()
		// The repaired log must accept appends exactly after its last
		// intact record.
		got, err := l.Append(edges(0, 2), nil)
		if err != nil {
			t.Fatalf("append onto repaired log: %v", err)
		}
		if got != last+2 {
			t.Fatalf("append after repair assigned seq %d, want %d", got, last+2)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("sync onto repaired log: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close repaired log: %v", err)
		}
		// Reopen: the repair must have left a clean log on disk.
		l2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("reopen after repair: %v", err)
		}
		defer l2.Close()
		if got := l2.LastSeq(); got != last+2 {
			t.Fatalf("reopen LastSeq = %d, want %d", got, last+2)
		}
	})
}

// FuzzReplay feeds arbitrary bytes to Open and, when the log opens,
// replays it: the decoder must never panic, Replay must never error (Open
// already repaired the tail, so whatever remains is intact by contract),
// and every record streamed must be well-formed — a known type, a
// non-empty batch for edge records, and exactly contiguous ascending
// sequence numbers.
func FuzzReplay(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		l, _, err := fuzzOpen(t, data)
		if err != nil {
			return
		}
		defer l.Close()
		next := uint64(1)
		var lastRec uint64
		if err := l.Replay(func(rec Record) error {
			switch rec.Type {
			case RecordEdges:
				if len(rec.Edges) == 0 {
					t.Fatalf("empty edge batch at seq %d", rec.FirstSeq)
				}
			case RecordExpire:
				if len(rec.Edges) != 0 {
					t.Fatalf("expire record at seq %d carries %d edges", rec.FirstSeq, len(rec.Edges))
				}
			default:
				t.Fatalf("unknown record type %d at seq %d", rec.Type, rec.FirstSeq)
			}
			if rec.FirstSeq != next {
				t.Fatalf("record starts at seq %d, want %d (gap or overlap)", rec.FirstSeq, next)
			}
			if rec.LastSeq() < rec.FirstSeq {
				t.Fatalf("record spans [%d, %d]", rec.FirstSeq, rec.LastSeq())
			}
			lastRec = rec.LastSeq()
			next = lastRec + 1
			return nil
		}); err != nil {
			t.Fatalf("replay of an opened log: %v", err)
		}
		if got := l.LastSeq(); got != lastRec {
			t.Fatalf("LastSeq = %d but replay ended at %d", got, lastRec)
		}
	})
}
