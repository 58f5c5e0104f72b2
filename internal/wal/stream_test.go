package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"higgs/internal/stream"
)

// readAll collects every record ReadFrom delivers after `after`, deep-
// copying edge slices (they are only valid during the callback).
func readAll(t *testing.T, l *Log, after, upTo uint64) (recs []Record, frontier uint64) {
	t.Helper()
	frontier, err := l.ReadFrom(after, upTo, func(rec Record, _ []byte) error {
		cp := rec
		cp.Edges = append([]stream.Edge(nil), rec.Edges...)
		recs = append(recs, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("ReadFrom(%d, %d): %v", after, upTo, err)
	}
	return recs, frontier
}

func TestReadFromStreamsDurableTail(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir, SegmentBytes: 256}) // force rotations
	defer l.Close()

	var wantRecs int
	for i := 0; i < 10; i++ {
		if _, err := l.Append(edges(i*5, 5), nil); err != nil {
			t.Fatal(err)
		}
		wantRecs++
		if i == 4 {
			if _, err := l.AppendRecord(expire(123), nil); err != nil {
				t.Fatal(err)
			}
			wantRecs++
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	last := l.LastSeq()

	recs, frontier := readAll(t, l, 0, 0)
	if frontier != last {
		t.Fatalf("frontier = %d, want %d", frontier, last)
	}
	if len(recs) != wantRecs {
		t.Fatalf("got %d records, want %d", len(recs), wantRecs)
	}
	next := uint64(1)
	var total int
	for _, rec := range recs {
		if rec.FirstSeq != next {
			t.Fatalf("record first seq = %d, want %d", rec.FirstSeq, next)
		}
		next = rec.LastSeq() + 1
		total += len(rec.Edges)
	}
	if total != 50 {
		t.Fatalf("replayed %d edges, want 50", total)
	}

	// Resuming from a record boundary must deliver exactly the remainder.
	afterRec := recs[3]
	tail, _ := readAll(t, l, afterRec.LastSeq(), 0)
	if len(tail) != wantRecs-4 {
		t.Fatalf("tail from %d: got %d records, want %d", afterRec.LastSeq(), len(tail), wantRecs-4)
	}
	if tail[0].FirstSeq != afterRec.LastSeq()+1 {
		t.Fatalf("tail starts at %d, want %d", tail[0].FirstSeq, afterRec.LastSeq()+1)
	}

	// upTo caps the frontier at a record boundary.
	capped, frontier := readAll(t, l, 0, afterRec.LastSeq())
	if frontier != afterRec.LastSeq() {
		t.Fatalf("capped frontier = %d, want %d", frontier, afterRec.LastSeq())
	}
	if len(capped) != 4 {
		t.Fatalf("capped read: got %d records, want 4", len(capped))
	}

	// Fully caught up: nothing to deliver.
	none, _ := readAll(t, l, last, 0)
	if len(none) != 0 {
		t.Fatalf("caught-up read returned %d records", len(none))
	}
}

func TestReadFromTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir, SegmentBytes: 64})
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.Append(edges(i*5, 5), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Segments() < 3 {
		t.Fatalf("want ≥ 3 segments for a meaningful truncation, got %d", l.Segments())
	}
	if _, err := l.TruncateThrough(25); err != nil {
		t.Fatal(err)
	}
	floor := l.FirstSeq()
	if floor <= 1 {
		t.Fatalf("floor did not advance: %d", floor)
	}
	if _, err := l.ReadFrom(0, 0, func(Record, []byte) error { return nil }); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFrom(0) after truncation: err = %v, want ErrTruncated", err)
	}
	// Reading from the floor onward still works and reaches the frontier.
	recs, frontier := readAll(t, l, floor-1, 0)
	if frontier != l.LastSeq() {
		t.Fatalf("frontier = %d, want %d", frontier, l.LastSeq())
	}
	if recs[0].FirstSeq != floor {
		t.Fatalf("first record at %d, want %d", recs[0].FirstSeq, floor)
	}
}

// TestReadFromConcurrentAppend hammers ReadFrom from a tailing goroutine
// while another appends — the shape of a live follower. The reader must
// observe a contiguous, gap-free record stream and never an error.
func TestReadFromConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir, SegmentBytes: 1024})
	defer l.Close()

	const batches = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			if _, err := l.Append(edges(i*3, 3), nil); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
		if err := l.Sync(); err != nil {
			t.Errorf("sync: %v", err)
		}
	}()

	var after uint64
	var got int
	for got < batches*3 {
		frontier, err := l.ReadFrom(after, 0, func(rec Record, _ []byte) error {
			if rec.FirstSeq != after+1 {
				t.Errorf("gap: record at %d, want %d", rec.FirstSeq, after+1)
			}
			after = rec.LastSeq()
			got += len(rec.Edges)
			return nil
		})
		if err != nil {
			t.Fatalf("ReadFrom: %v", err)
		}
		if frontier <= after {
			l.WaitSyncedBeyond(after, 50*time.Millisecond)
		}
	}
	wg.Wait()
	if after != uint64(batches*3) {
		t.Fatalf("tailed to %d, want %d", after, batches*3)
	}
}

func TestWaitSyncedBeyond(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir})
	defer l.Close()
	// Timeout path: nothing appended, frontier stays 0.
	start := time.Now()
	if got := l.WaitSyncedBeyond(0, 30*time.Millisecond); got != 0 {
		t.Fatalf("frontier = %d, want 0", got)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("WaitSyncedBeyond returned before the timeout")
	}
	// Satisfied path: an append's group sync must release the wait.
	done := make(chan uint64, 1)
	go func() { done <- l.WaitSyncedBeyond(0, 5*time.Second) }()
	if _, err := l.Append(edges(0, 3), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got < 3 {
			t.Fatalf("frontier = %d, want ≥ 3", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitSyncedBeyond did not wake on sync")
	}
}

// TestWaitSyncedBeyondTimesOutOnIdleLog: on a log nothing syncs, the
// timeout is the only wakeup a waiter gets, so it must never be lost — a
// timer that fires between the waiter's loop check and its Wait would
// otherwise leave the long-poll parked until the next sync, which an idle
// primary never performs. The waits run one at a time: a second waiter's
// timer would broadcast too and rescue a lost wakeup.
func TestWaitSyncedBeyondTimesOutOnIdleLog(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir()})
	const waits, slack = 300, 2 * time.Second
	timeout := func(i int) time.Duration { return time.Duration(20+i%5*20) * time.Microsecond }
	done := make(chan struct{})
	defer func() { l.Close(); <-done }() // Close releases a stuck waiter
	go func() {
		defer close(done)
		for i := 0; i < waits; i++ {
			start := time.Now()
			l.WaitSyncedBeyond(0, timeout(i))
			if took := time.Since(start); took > timeout(i)+slack {
				t.Errorf("wait %d: WaitSyncedBeyond(0, %v) on an idle log took %v", i, timeout(i), took)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(waits*timeout(4) + slack):
		t.Fatalf("%d waits of at most %v each on an idle log still running after %v: a timeout wakeup was lost", waits, timeout(4), waits*timeout(4)+slack)
	}
}

// streamOf appends recs to a fresh log and returns the stream a follower
// would be served for ?after=0 — Header() plus every frame ReadFrom hands
// out — and the segment file those frames came from.
func streamOf(t testing.TB, recs ...Record) (body, segment []byte) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, rec := range recs {
		if _, err := l.AppendRecord(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	body = Header()
	if _, err := l.ReadFrom(0, 0, func(_ Record, frame []byte) error {
		body = append(body, frame...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if segment, err = os.ReadFile(filepath.Join(dir, fmt.Sprintf("%020d%s", 1, segmentSuffix))); err != nil {
		t.Fatal(err)
	}
	return body, segment
}

// framesOf decodes a stream through the follower's entry point, deep-
// copying what is only valid during the callback.
func framesOf(in []byte) (recs []Record, off int64, err error) {
	off, err = ReadFrames(bytes.NewReader(in), func(rec Record, _ []byte) error {
		rec.Edges = append([]stream.Edge(nil), rec.Edges...)
		recs = append(recs, rec)
		return nil
	})
	return recs, off, err
}

// TestStreamRoundTrip: the stream a primary serves is the segment's own
// bytes, and the follower's parser reads back exactly what was appended.
func TestStreamRoundTrip(t *testing.T) {
	want := []Record{
		{Mutation: stream.Mutation{Kind: stream.Insert, Edges: edges(0, 4)}, FirstSeq: 1},
		{Mutation: stream.Mutation{Kind: stream.Expire, Cutoff: -7}, FirstSeq: 5},
		{Mutation: stream.Mutation{Kind: stream.Delete, Edge: edge(2)}, FirstSeq: 6},
		{Mutation: stream.Mutation{Kind: stream.Insert, Edges: edges(4, 1)}, FirstSeq: 7},
	}
	body, segment := streamOf(t, want...)
	if !bytes.Equal(body, segment) {
		t.Fatalf("served stream (%d bytes) is not the segment file (%d bytes)", len(body), len(segment))
	}
	got, off, err := framesOf(body)
	if err != nil || off != int64(len(body)) {
		t.Fatalf("ReadFrames: off = %d of %d, err = %v", off, len(body), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestStreamReaderRefusesDamage: every way a stream can stop being frames
// has a class, the offset reported is the end of the last intact frame, and
// only a frame boundary is a clean end.
func TestStreamReaderRefusesDamage(t *testing.T) {
	full, _ := streamOf(t, insert(edges(0, 8)), insert(edges(8, 8)))
	_, first, _ := framesOf(full[:len(full)-1]) // end of the first frame
	hdr := len(header)
	unknown := bytes.Clone(full[:first])
	unknown[hdr+frameHeadLen] = 9 // the payload's type byte, CRC fixed up below
	binary.LittleEndian.PutUint32(unknown[hdr+4:], crc32.ChecksumIEEE(unknown[hdr+frameHeadLen:]))

	cases := []struct {
		name string
		in   []byte
		off  int64
		want error
	}{
		{"empty stream", nil, 0, shortHeader},
		{"short header", full[:3], 0, shortHeader},
		{"bad header", append([]byte{0xde, 0xad}, full[2:]...), 0, badHeader},
		{"header only", header, int64(hdr), nil},
		{"torn frame", full[:hdr+4], int64(hdr), tornFrame},
		{"zero length", append(bytes.Clone(header), 0, 0, 0, 0, 0, 0, 0, 0), int64(hdr), frameLength},
		{"torn payload", full[:len(full)-2], first, tornPayload},
		{"flipped byte", append(bytes.Clone(full[:len(full)-1]), full[len(full)-1]^0xff), first, badChecksum},
		{"unknown type", unknown, int64(hdr), badPayload},
		{"one frame", full[:first], first, nil},
		{"intact", full, int64(len(full)), nil},
	}
	for _, c := range cases {
		_, off, err := framesOf(c.in)
		var got malformed
		if off != c.off || (c.want == nil) != (err == nil) || (err != nil && (!errors.As(err, &got) || got != c.want)) {
			t.Errorf("%s: off = %d, err = %v; want %d, %v", c.name, off, err, c.off, c.want)
		}
	}
}
