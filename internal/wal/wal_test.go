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
	"strings"
	"sync"
	"testing"
	"time"

	"higgs/internal/stream"
	"higgs/internal/wire"
)

// edge builds a deterministic test edge for index i.
func edge(i int) stream.Edge {
	return stream.Edge{S: uint64(i % 17), D: uint64(i % 13), W: int64(i%5 + 1), T: int64(i)}
}

func edges(from, n int) []stream.Edge {
	out := make([]stream.Edge, n)
	for i := range out {
		out[i] = edge(from + i)
	}
	return out
}

// expire builds the expire control record AppendRecord sequences.
func expire(cutoff int64) Record {
	return Record{Mutation: stream.Mutation{Kind: stream.Expire, Cutoff: cutoff}}
}

// insert and del build the edge-batch and delete records AppendRecord
// sequences.
func insert(es []stream.Edge) Record {
	return Record{Mutation: stream.Mutation{Kind: stream.Insert, Edges: es}}
}
func del(e stream.Edge) Record {
	return Record{Mutation: stream.Mutation{Kind: stream.Delete, Edge: e}}
}

func openT(t *testing.T, cfg Config) *Log {
	t.Helper()
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// collect replays the log's edge batches into a flat edge slice, asserting
// sequence contiguity starting at wantFirst (expire records consume their
// sequence number but contribute no edges).
func collect(t *testing.T, l *Log, wantFirst uint64) []stream.Edge {
	t.Helper()
	var out []stream.Edge
	next := wantFirst
	err := l.Replay(func(rec Record) error {
		if rec.FirstSeq != next {
			t.Fatalf("record first seq = %d, want %d", rec.FirstSeq, next)
		}
		if rec.Kind == stream.Insert {
			out = append(out, rec.Edges...)
			next = rec.FirstSeq + uint64(len(rec.Edges))
		} else {
			next = rec.FirstSeq + 1
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir})
	var want []stream.Edge
	for i := 0; i < 10; i++ {
		batch := edges(i*7, 7)
		want = append(want, batch...)
		last, err := l.Append(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantLast := uint64((i + 1) * 7); last != wantLast {
			t.Fatalf("append %d: last seq = %d, want %d", i, last, wantLast)
		}
	}
	if err := l.WaitSynced(l.LastSeq()); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 1)
	if len(got) != len(want) {
		t.Fatalf("replayed %d edges, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the log resumes after the last record.
	l2 := openT(t, Config{Dir: dir})
	defer l2.Close()
	if got := l2.LastSeq(); got != 70 {
		t.Fatalf("reopened LastSeq = %d, want 70", got)
	}
	if got := collect(t, l2, 1); len(got) != 70 {
		t.Fatalf("reopened replay length = %d, want 70", len(got))
	}
	if last, err := l2.Append(edges(70, 3), nil); err != nil || last != 73 {
		t.Fatalf("append after reopen: last = %d, err = %v; want 73, nil", last, err)
	}
}

func TestDeliverOrderIsSeqOrderAndGroupSync(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir(), SyncInterval: 200 * time.Microsecond})
	defer l.Close()
	const writers, perWriter = 8, 50
	var mu sync.Mutex
	var delivered []uint64
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				last, err := l.Append(edges(w*perWriter+i, 2), func(first uint64) error {
					mu.Lock()
					delivered = append(delivered, first)
					mu.Unlock()
					return nil
				})
				if err != nil {
					errc <- err
					return
				}
				if err := l.WaitSynced(last); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// Deliver callbacks observed strictly increasing first-seqs: delivery
	// order is sequence order.
	for i := 1; i < len(delivered); i++ {
		if delivered[i] <= delivered[i-1] {
			t.Fatalf("deliver order broken at %d: %d after %d", i, delivered[i], delivered[i-1])
		}
	}
	if want := uint64(writers * perWriter * 2); l.SyncedSeq() != want {
		t.Fatalf("SyncedSeq = %d, want %d", l.SyncedSeq(), want)
	}
}

func TestDeliverAbortLeavesNoRecord(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir()})
	defer l.Close()
	if _, err := l.Append(edges(0, 3), nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("queue full")
	if _, err := l.Append(edges(3, 4), func(uint64) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("aborted append error = %v, want %v", err, boom)
	}
	if got := l.LastSeq(); got != 3 {
		t.Fatalf("LastSeq after abort = %d, want 3", got)
	}
	// The next accepted batch reuses the aborted sequence numbers.
	last, err := l.Append(edges(3, 2), func(first uint64) error {
		if first != 4 {
			t.Fatalf("first seq after abort = %d, want 4", first)
		}
		return nil
	})
	if err != nil || last != 5 {
		t.Fatalf("append after abort: last = %d, err = %v", last, err)
	}
	if got := collect(t, l, 1); len(got) != 5 {
		t.Fatalf("replay length = %d, want 5", len(got))
	}
}

func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir, SegmentBytes: 256})
	for i := 0; i < 40; i++ {
		if _, err := l.Append(edges(i*4, 4), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Segments(); n < 3 {
		t.Fatalf("only %d segments after 40 records at 256-byte rotation", n)
	}
	before := l.Segments()
	removed, err := l.TruncateThrough(80)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || l.Segments() != before-removed {
		t.Fatalf("TruncateThrough removed %d of %d segments", removed, before)
	}
	// Everything after the covered prefix replays; nothing before does.
	low, n := ^uint64(0), uint64(0)
	if err := l.Replay(func(rec Record) error {
		if rec.FirstSeq < low {
			low = rec.FirstSeq
		}
		n += uint64(len(rec.Edges))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if low > 81 {
		t.Fatalf("replay starts at seq %d; truncation through 80 must keep 81", low)
	}
	if end := low + n - 1; end != 160 {
		t.Fatalf("replay ends at %d, want 160", end)
	}
	// Truncating beyond the end never removes the active segment.
	if _, err := l.TruncateThrough(1 << 40); err != nil {
		t.Fatal(err)
	}
	if l.Segments() < 1 {
		t.Fatal("active segment removed")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A reopened truncated log continues appending seamlessly.
	l2 := openT(t, Config{Dir: dir, SegmentBytes: 256})
	defer l2.Close()
	if got := l2.LastSeq(); got != 160 {
		t.Fatalf("reopened LastSeq = %d, want 160", got)
	}
}

func TestTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(edges(i*3, 3), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	// Simulate a torn write: garbage appended to the tail.
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openT(t, Config{Dir: dir})
	if got := l2.LastSeq(); got != 15 {
		t.Fatalf("LastSeq after repair = %d, want 15", got)
	}
	if got := collect(t, l2, 1); len(got) != 15 {
		t.Fatalf("replay after repair = %d edges, want 15", len(got))
	}
	// The repaired log keeps accepting appends at the right sequence.
	if last, err := l2.Append(edges(15, 2), nil); err != nil || last != 17 {
		t.Fatalf("append after repair: last = %d, err = %v", last, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := openT(t, Config{Dir: dir})
	defer l3.Close()
	if got := collect(t, l3, 1); len(got) != 17 {
		t.Fatalf("second reopen replay = %d edges, want 17", len(got))
	}
}

func TestTornPayloadTruncation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir})
	for i := 0; i < 4; i++ {
		if _, err := l.Append(edges(i*2, 2), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-record: the last record loses its final bytes.
	if err := os.Truncate(segs[0], st.Size()-3); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, Config{Dir: dir})
	defer l2.Close()
	if got := l2.LastSeq(); got != 6 {
		t.Fatalf("LastSeq after torn payload = %d, want 6 (last intact record)", got)
	}
	if got := collect(t, l2, 1); len(got) != 6 {
		t.Fatalf("replay = %d edges, want 6", len(got))
	}
}

func TestCorruptMiddleSegmentRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir, SegmentBytes: 128})
	for i := 0; i < 30; i++ {
		if _, err := l.Append(edges(i*4, 4), nil); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("need ≥ 3 segments, got %d", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	// Flip a byte in the FIRST segment (not the last): unrepairable.
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir, SegmentBytes: 128}); err == nil {
		t.Fatal("Open accepted a corrupt non-last segment")
	}
}

func TestEmptyAppendAndZeroWait(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir()})
	defer l.Close()
	last, err := l.Append(nil, nil)
	if err != nil || last != 0 {
		t.Fatalf("empty append: last = %d, err = %v", last, err)
	}
	if err := l.WaitSynced(0); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir()})
	if _, err := l.Append(edges(0, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(edges(1, 1), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed log: %v", err)
	}
	if _, err := l.TruncateThrough(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("TruncateThrough on closed log: %v", err)
	}
	if err := l.Replay(func(Record) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Replay on closed log: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync on closed log: %v", err)
	}
	if _, err := l.ReadFrom(0, 0, func(Record, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadFrom on closed log: %v", err)
	}
	for _, rec := range []Record{expire(5), del(edge(0))} {
		if _, err := l.AppendRecord(rec, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("AppendRecord(type %d) on closed log: %v", rec.Kind, err)
		}
	}
	// The read-only accessors keep answering with the log's last state.
	if got := l.FirstSeq(); got != 1 {
		t.Fatalf("FirstSeq after Close = %d, want 1", got)
	}
	if got := l.LastSeq(); got != 1 {
		t.Fatalf("LastSeq after Close = %d, want 1", got)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("Segments after Close = %d, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal("second Close not idempotent")
	}
}

// TestAppendAllocs pins the durable append path's allocations: a
// steady-state 64-edge AppendRecord with a deliver callback encodes its
// whole frame, head and payload, into the log's one reused buffer and
// writes it in one call, so it allocates nothing. (A head in a stack array
// of its own escaped through bufio's io.Writer: one allocation per append.)
// A critical-section closure that escapes to the heap would add to it. The
// pin is the cheapest of many single appends, because the syncer's
// concurrent flushes count against the same process-wide total.
func TestAppendAllocs(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir()})
	defer l.Close()
	rec := insert(edges(0, 64))
	deliver := func(uint64) error { return nil }
	appendOne := func() {
		if _, err := l.AppendRecord(rec, deliver); err != nil {
			t.Fatal(err)
		}
	}
	least := testing.AllocsPerRun(1, appendOne)
	for i := 0; i < 100; i++ {
		least = min(least, testing.AllocsPerRun(1, appendOne))
	}
	if least != 0 {
		t.Fatalf("steady-state AppendRecord of a 64-edge batch = %v allocs at best, want 0", least)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("empty Dir accepted")
	}
	if err := (Config{Dir: "x", SyncInterval: -1}).Validate(); err == nil {
		t.Fatal("negative SyncInterval accepted")
	}
}

func TestManySegmentsSurviveReopenCycles(t *testing.T) {
	dir := t.TempDir()
	total := 0
	for cycle := 0; cycle < 4; cycle++ {
		l := openT(t, Config{Dir: dir, SegmentBytes: 200})
		for i := 0; i < 10; i++ {
			if _, err := l.Append(edges(total, 3), nil); err != nil {
				t.Fatal(err)
			}
			total += 3
		}
		if got := collect(t, l, 1); len(got) != total {
			t.Fatalf("cycle %d: replay = %d edges, want %d", cycle, len(got), total)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	l := openT(t, Config{Dir: dir, SegmentBytes: 200})
	defer l.Close()
	if got := l.LastSeq(); got != uint64(total) {
		t.Fatalf("final LastSeq = %d, want %d", got, total)
	}
}

func TestSegmentNamesAreOrdered(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir, SegmentBytes: 128})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(edges(i*4, 4), nil); err != nil {
			t.Fatal(err)
		}
	}
	defer l.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i-1] >= segs[i] {
			t.Fatalf("segment names not lexically ordered: %s ≥ %s", segs[i-1], segs[i])
		}
	}
	if len(segs) != l.Segments() {
		t.Fatalf("on-disk segments = %d, log reports %d", len(segs), l.Segments())
	}
}

func TestReplayErrorAborts(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir()})
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.Append(edges(i, 1), nil); err != nil {
			t.Fatal(err)
		}
	}
	boom := fmt.Errorf("stop here")
	calls := 0
	err := l.Replay(func(Record) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("replay abort: err = %v after %d calls", err, calls)
	}
}

// replayAll collects every record (typed) in replay order.
func replayAll(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(rec Record) error {
		cp := rec
		cp.Edges = append([]stream.Edge(nil), rec.Edges...)
		out = append(out, cp)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

// TestExpireRecordRoundtrip: expire control records interleave with edge
// batches, consume one sequence number each, and replay — across reopens —
// at exactly their appended position.
func TestExpireRecordRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir})
	if _, err := l.Append(edges(0, 4), nil); err != nil { // seqs 1..4
		t.Fatal(err)
	}
	seq, err := l.AppendRecord(expire(42), func(seq uint64) error {
		if seq != 5 {
			t.Fatalf("expire deliver seq = %d, want 5", seq)
		}
		return nil
	})
	if err != nil || seq != 5 {
		t.Fatalf("AppendRecord: seq = %d, err = %v; want 5, nil", seq, err)
	}
	if err := l.WaitSynced(seq); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(edges(4, 3), nil); err != nil { // seqs 6..8
		t.Fatal(err)
	}
	if got := l.LastSeq(); got != 8 {
		t.Fatalf("LastSeq = %d, want 8", got)
	}
	check := func(l *Log) {
		t.Helper()
		recs := replayAll(t, l)
		if len(recs) != 3 {
			t.Fatalf("replayed %d records, want 3", len(recs))
		}
		if recs[0].Kind != stream.Insert || recs[0].FirstSeq != 1 || len(recs[0].Edges) != 4 {
			t.Fatalf("record 0 = %+v, want 4-edge batch at seq 1", recs[0])
		}
		if recs[1].Kind != stream.Expire || recs[1].FirstSeq != 5 || recs[1].Cutoff != 42 {
			t.Fatalf("record 1 = %+v, want expire(42) at seq 5", recs[1])
		}
		if recs[2].Kind != stream.Insert || recs[2].FirstSeq != 6 || len(recs[2].Edges) != 3 {
			t.Fatalf("record 2 = %+v, want 3-edge batch at seq 6", recs[2])
		}
	}
	check(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, Config{Dir: dir})
	defer l2.Close()
	if got := l2.LastSeq(); got != 8 {
		t.Fatalf("reopened LastSeq = %d, want 8", got)
	}
	check(l2)
	// Appends resume after the expire's consumed sequence number.
	if last, err := l2.Append(edges(7, 2), nil); err != nil || last != 10 {
		t.Fatalf("append after reopen: last = %d, err = %v; want 10", last, err)
	}
}

// TestAppendRecordDeliverAbort: an aborted expire leaves no record and
// consumes no sequence number, exactly as an aborted edge batch.
func TestAppendRecordDeliverAbort(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir()})
	defer l.Close()
	if _, err := l.Append(edges(0, 2), nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("not now")
	if _, err := l.AppendRecord(expire(9), func(uint64) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("aborted expire error = %v, want %v", err, boom)
	}
	if got := l.LastSeq(); got != 2 {
		t.Fatalf("LastSeq after aborted expire = %d, want 2", got)
	}
	seq, err := l.AppendRecord(expire(9), nil)
	if err != nil || seq != 3 {
		t.Fatalf("expire after abort: seq = %d, err = %v; want 3", seq, err)
	}
	if recs := replayAll(t, l); len(recs) != 2 || recs[1].Kind != stream.Expire {
		t.Fatalf("replay after abort = %+v, want edge batch + expire", recs)
	}
}

// TestAppendRecordClosed: a closed log rejects every record type.
func TestAppendRecordClosed(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir()})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{expire(1), del(edge(1)), insert(edges(0, 1))} {
		if _, err := l.AppendRecord(rec, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("type-%d record on closed log: %v", rec.Kind, err)
		}
	}
}

// TestAppendRecordWellFormed is the one well-formedness check: an unknown
// type is refused before it consumes a sequence number or reaches deliver,
// so no reader ever meets a frame it must refuse; an empty edge batch is a
// no-op.
func TestAppendRecordWellFormed(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir()})
	defer l.Close()
	deliver := func(uint64) error { t.Fatal("deliver ran for a refused record"); return nil }
	for _, typ := range []stream.Kind{0, 4, 99} {
		if _, err := l.AppendRecord(Record{Mutation: stream.Mutation{Kind: typ, Edges: edges(0, 1)}}, deliver); err == nil {
			t.Fatalf("record type %d accepted", typ)
		}
	}
	if last, err := l.AppendRecord(Record{Mutation: stream.Mutation{Kind: stream.Insert}}, deliver); err != nil || last != 0 {
		t.Fatalf("empty edge batch: last = %d, err = %v; want 0, nil", last, err)
	}
	if got := l.LastSeq(); got != 0 {
		t.Fatalf("LastSeq = %d after refused records, want 0", got)
	}
	if recs := replayAll(t, l); len(recs) != 0 {
		t.Fatalf("refused records left %d frames", len(recs))
	}
}

// TestDeleteRecordRoundtrip: a delete consumes one sequence number, carries
// its edge, and replays — across a reopen — at its appended position.
func TestDeleteRecordRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Config{Dir: dir})
	if _, err := l.Append(edges(0, 2), nil); err != nil { // seqs 1..2
		t.Fatal(err)
	}
	del := del(stream.Edge{S: 1 << 40, D: 7, W: -3, T: -9})
	seq, err := l.AppendRecord(del, func(seq uint64) error {
		if seq != 3 {
			t.Fatalf("delete deliver seq = %d, want 3", seq)
		}
		return nil
	})
	if err != nil || seq != 3 {
		t.Fatalf("delete: seq = %d, err = %v; want 3, nil", seq, err)
	}
	if last, err := l.Append(edges(2, 1), nil); err != nil || last != 4 {
		t.Fatalf("append after delete: last = %d, err = %v; want 4", last, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, Config{Dir: dir})
	defer l2.Close()
	recs := replayAll(t, l2)
	del.FirstSeq = 3
	if len(recs) != 3 || !reflect.DeepEqual(recs[1], del) {
		t.Fatalf("replay = %+v, want the delete %+v between two edge batches", recs, del)
	}
}

// TestExpireRecordsRotateAndTruncate: expire records rotate segments and
// are disposed of by TruncateThrough like any other record.
func TestExpireRecordsRotateAndTruncate(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir(), SegmentBytes: 256})
	defer l.Close()
	for i := 0; i < 30; i++ {
		if _, err := l.Append(edges(i*4, 4), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendRecord(expire(int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Segments(); n < 3 {
		t.Fatalf("only %d segments", n)
	}
	// 30 × (4 edges + 1 expire) = 150 sequences.
	if got := l.LastSeq(); got != 150 {
		t.Fatalf("LastSeq = %d, want 150", got)
	}
	if removed, err := l.TruncateThrough(75); err != nil || removed == 0 {
		t.Fatalf("TruncateThrough: removed %d, err %v", removed, err)
	}
	recs := replayAll(t, l)
	if len(recs) == 0 {
		t.Fatal("nothing replayed after truncate")
	}
	if end := recs[len(recs)-1].LastSeq(); end != 150 {
		t.Fatalf("replay after truncate ends at %d, want 150", end)
	}
}

// v1Segment hand-writes a version-1 segment exactly as development builds
// before typed records laid it out: magic + version-1 header, then
// length+CRC frames over untyped (firstSeq, count, edges...) payloads. No
// deployment ever wrote one; it is the input Open must refuse (and a fuzz
// seed, so the refusal stays fuzzed).
func v1Segment(tb testing.TB, batches ...[]stream.Edge) []byte {
	tb.Helper()
	var seg wire.Writer
	seg.U64(walMagic)
	seg.U64(1)
	seq := uint64(1)
	for _, b := range batches {
		var pay wire.Writer
		pay.U64(seq)
		pay.Int(len(b))
		for _, e := range b {
			pay = appendEdge(pay, e)
		}
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(pay)))
		seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(pay))
		seg = append(seg, pay...)
		seq += uint64(len(b))
	}
	return seg
}

// TestV1SegmentRejected: a version-1 segment — with records or header
// only — makes Open fail
// cleanly: an error naming the header, no log, and the file left exactly
// as it was (nothing repaired, rewritten or sealed).
func TestV1SegmentRejected(t *testing.T) {
	for name, data := range map[string][]byte{
		"records":     v1Segment(t, edges(0, 5), edges(5, 3)),
		"header only": v1Segment(t),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, fmt.Sprintf("%020d%s", 1, segmentSuffix))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(Config{Dir: dir})
			if err == nil {
				l.Close()
				t.Fatal("Open accepted a version-1 segment")
			}
			if !strings.Contains(err.Error(), "bad header") {
				t.Fatalf("Open error = %v, want a bad-header refusal", err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("refused segment was modified (err %v)", err)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Fatalf("refusal left %d files in the directory, want the 1 it found", len(entries))
			}
		})
	}
}

func TestWaitSyncedAfterCloseReportsDurableRecords(t *testing.T) {
	l := openT(t, Config{Dir: t.TempDir()})
	last, err := l.Append(edges(0, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The final group sync made the record durable; a late waiter (a
	// Submit goroutine racing shutdown) must see success, not ErrClosed —
	// the record WILL be replayed on restart, and an error would provoke
	// a client retry and a double ingest.
	if err := l.WaitSynced(last); err != nil {
		t.Fatalf("WaitSynced on a durable record after Close = %v, want nil", err)
	}
	// A sequence that never became durable still fails.
	if err := l.WaitSynced(last + 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitSynced past the durable frontier after Close = %v, want ErrClosed", err)
	}
}
