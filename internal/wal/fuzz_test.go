package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzSeedV2 builds a real version-2 segment — edge batches interleaved
// with an expire record, written by the production Append path — and
// returns its on-disk bytes.
func fuzzSeedV2(f testing.TB) []byte {
	f.Helper()
	dir := f.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := l.Append(edges(0, 5), nil); err != nil {
		f.Fatal(err)
	}
	if _, err := l.AppendRecord(expire(42), nil); err != nil {
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

// TestSegmentGolden pins the on-disk bytes of type-1 and type-2 frames: the
// hash is of this segment as the commit before AppendRecord existed wrote
// it, through the two append bodies it had, so the one append body changed
// no byte — and the ruler's wal.bytes_per_edge still measures what it did.
func TestSegmentGolden(t *testing.T) {
	const want = "7210c0383bf86fd9ec0ce82185c722f90f5a518be596734a2a78e1b554aa55ce"
	data := fuzzSeedV2(t)
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want || len(data) != 71 || walVersion != 2 {
		t.Fatalf("segment = %d bytes, sha256 %s, version %d; want 71 bytes, %s, version 2", len(data), got, walVersion, want)
	}
}

// fuzzSeeds registers the corpus both fuzz targets start from: an intact
// segment and the version-1 segment Open refuses, their truncations (torn
// tails at every interesting boundary), a bare header, and an empty file.
func fuzzSeeds(f *testing.F) {
	v2 := fuzzSeedV2(f)
	v1 := v1Segment(f, edges(0, 4), edges(4, 2))
	f.Add(v2)
	f.Add(v1)
	hdr := len(header)
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

// FuzzFrames holds "one reader": the same bytes, read as a segment file by
// the scan under Open, Replay and ReadFrom and as a response body by the
// follower's entry point, must yield the same records, stop at the same
// offset and name the same class of damage. The scan checks one thing more
// — sequence contiguity, which a follower leaves to its applier's gap check
// — so a scan stopped by that alone must still agree on every record
// before it.
func FuzzFrames(f *testing.F) {
	fuzzSeeds(f)
	hdr := len(header)
	del, _ := streamOf(f, Record{Type: RecordEdges, Edges: edges(0, 2)}, Record{Type: RecordDelete, Edge: edge(1)})
	f.Add(del)
	unknown := bytes.Clone(del)
	unknown[hdr+frameHeadLen] = 9 // first payload's type byte, under a valid CRC
	n := binary.LittleEndian.Uint32(unknown[hdr:])
	binary.LittleEndian.PutUint32(unknown[hdr+4:], crc32.ChecksumIEEE(unknown[hdr+frameHeadLen:][:n]))
	f.Add(unknown)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "segment")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var scanned []Record
		tail, _, scanErr := scanSegment(path, 1, func(rec Record, _ []byte) error {
			rec.Edges = append(rec.Edges[:0:0], rec.Edges...)
			scanned = append(scanned, rec)
			return nil
		})
		followed, off, followErr := framesOf(data)

		var scanClass, followClass malformed
		if scanErr != nil && !errors.As(scanErr, &scanClass) {
			// A sequence gap: the follower read on, the scan did not.
			if len(followed) <= len(scanned) || !reflect.DeepEqual(append([]Record(nil), followed[:len(scanned)]...), scanned) {
				t.Fatalf("scan stopped by %v after %d records; follower read %d and disagrees on them", scanErr, len(scanned), len(followed))
			}
			return
		}
		errors.As(followErr, &followClass)
		if (followErr != nil) != (followClass != "") {
			t.Fatalf("follower stopped by an unclassified error: %v", followErr)
		}
		if tail != off || scanClass != followClass || !reflect.DeepEqual(scanned, followed) {
			t.Fatalf("scan: %d records, offset %d, %q; follower: %d records, offset %d, %q",
				len(scanned), tail, scanClass, len(followed), off, followClass)
		}
	})
}
