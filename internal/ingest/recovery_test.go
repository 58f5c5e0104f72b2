package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"higgs/internal/shard"
	"higgs/internal/stream"
	"higgs/internal/wal"
)

// testStreamFor synthesizes a deterministic time-ordered stream.
func testStreamFor(t *testing.T, edges int) stream.Stream {
	t.Helper()
	s, err := stream.Generate(stream.Config{
		Nodes: 200, Edges: edges, Span: 5000, Skew: 2.0, Variance: 4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newShardedFor(t *testing.T, shards int) *shard.Summary {
	t.Helper()
	cfg := shard.DefaultConfig()
	cfg.Shards = shards
	s, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func openWAL(t *testing.T, dir string, segBytes int64) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// submitAll pushes the stream through the pipeline in fixed batches,
// retrying full queues.
func submitAll(t *testing.T, p *Pipeline, st stream.Stream, batch int) {
	t.Helper()
	for lo := 0; lo < len(st); lo += batch {
		hi := lo + batch
		if hi > len(st) {
			hi = len(st)
		}
		for {
			_, err := p.Submit(st[lo:hi])
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("submit: %v", err)
			}
			runtime.Gosched()
		}
	}
}

// snapshotBytes serializes a summary finalized. A WAL-owned summary
// refuses an unlogged Finalize, so the bytes are its decoded twin's.
func snapshotBytes(t *testing.T, s *shard.Summary) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	twin, err := shard.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	twin.Finalize()
	buf.Reset()
	if _, err := twin.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cleanReference ingests the stream through a WAL'd pipeline and closes it
// in order, so every edge is applied by the committers and nothing is
// replayed — the byte-identity reference every recovery path must
// reproduce.
func cleanReference(t *testing.T, st stream.Stream, shards, batch int) []byte {
	t.Helper()
	dir := t.TempDir()
	log := openWAL(t, dir, 0)
	sum := newShardedFor(t, shards)
	p, err := New(sum, Config{WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, p, st, batch)
	p.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return snapshotBytes(t, sum)
}

func TestRecoverFromScratchMatchesCleanRun(t *testing.T) {
	const shards, batch = 4, 64
	st := testStreamFor(t, 4000)
	want := cleanReference(t, st, shards, batch)

	// Crashed run: everything accepted, nothing flushed, the
	// summary abandoned without an orderly close.
	dir := t.TempDir()
	log := openWAL(t, dir, 0)
	crashed := newShardedFor(t, shards)
	p, err := New(crashed, Config{QueueDepth: 256, CommitInterval: 50 * time.Microsecond, WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, p, st, batch)
	// Simulated crash: stop the goroutines, discard the summary, keep only
	// what reached the disk (every accepted batch was fsync'd by Submit).
	p.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2 := openWAL(t, dir, 0)
	defer log2.Close()
	recovered := newShardedFor(t, shards)
	replayed, err := Recover(recovered, log2)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != int64(len(st)) {
		t.Fatalf("replayed %d edges, want %d", replayed, len(st))
	}
	if got := snapshotBytes(t, recovered); !bytes.Equal(got, want) {
		t.Fatalf("recovered snapshot diverges from clean run (%d vs %d bytes)", len(got), len(want))
	}
}

func TestRecoverFromSnapshotPlusTail(t *testing.T) {
	const shards, batch = 4, 64
	st := testStreamFor(t, 4000)
	want := cleanReference(t, st, shards, batch)

	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snapshot.higgs")
	log := openWAL(t, dir, 4096) // small segments so truncation is visible
	crashed := newShardedFor(t, shards)
	p, err := New(crashed, Config{QueueDepth: 256, CommitInterval: 50 * time.Microsecond, WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	snapper := NewSnapshotter(crashed, p, log, snapPath, 0, nil)

	mid := len(st) / 2
	submitAll(t, p, st[:mid], batch)
	segsBefore := log.Segments()
	if err := snapper.Snap(); err != nil {
		t.Fatal(err)
	}
	if log.Segments() >= segsBefore {
		t.Fatalf("snapshot did not truncate the WAL: %d segments before, %d after", segsBefore, log.Segments())
	}
	if snapper.Status().SnapshotSeq == 0 || snapper.Status().SnapshotUnix == 0 {
		t.Fatal("snapshotter did not record its covered sequence/time")
	}
	submitAll(t, p, st[mid:], batch)
	p.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: latest snapshot + WAL tail.
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := shard.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	log2 := openWAL(t, dir, 4096)
	defer log2.Close()
	replayed, err := Recover(recovered, log2)
	if err != nil {
		t.Fatal(err)
	}
	if replayed <= 0 || replayed >= int64(len(st)) {
		t.Fatalf("replayed %d edges; want a strict tail of the %d-edge stream", replayed, len(st))
	}
	if got := recovered.Items(); got != int64(len(st)) {
		t.Fatalf("recovered items = %d, want %d (watermark filter must not double-apply)", got, len(st))
	}
	if got := snapshotBytes(t, recovered); !bytes.Equal(got, want) {
		t.Fatalf("snapshot+tail recovery diverges from clean run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestWALSubmitLogsThenApplies: Submit returns with the batch logged and
// fsync'd but only queued; the flush applies it and advances the target
// shards' watermarks.
func TestWALSubmitLogsThenApplies(t *testing.T) {
	dir := t.TempDir()
	log := openWAL(t, dir, 0)
	sum := newShardedFor(t, 2)
	p, err := New(sum, Config{CommitInterval: time.Hour, WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	applied, err := p.Submit([]stream.Edge{{S: 1, D: 2, W: 3, T: 10}, {S: 2, D: 3, W: 4, T: 20}})
	if err != nil || applied {
		t.Fatalf("WAL submit: applied = %v, err = %v, want queued", applied, err)
	}
	if got := log.LastSeq(); got != 2 {
		t.Fatalf("WAL LastSeq = %d, want 2", got)
	}
	if got := log.SyncedSeq(); got != 2 {
		t.Fatalf("WAL SyncedSeq = %d, want 2 (Submit must wait for the group sync)", got)
	}
	p.Flush()
	if got := sum.EdgeWeight(1, 2, 0, 100); got != 3 {
		t.Fatalf("edge weight after flush = %d, want 3", got)
	}
	// Watermarks advanced on the shards that received edges.
	var marked int
	for i := 0; i < sum.NumShards(); i++ {
		if sum.ShardSeq(i) > 0 {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no shard watermark advanced after a WAL'd apply")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALQueueFullLeavesNoRecord(t *testing.T) {
	dir := t.TempDir()
	log := openWAL(t, dir, 0)
	defer log.Close()
	sum := newShardedFor(t, 1)
	p, err := New(sum, Config{QueueDepth: 8, WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	p.applyHook = func(int, []stream.Edge) { <-gate }
	st := testStreamFor(t, 64)
	var accepted int
	sawFull := false
	for i := range st {
		_, err := p.Submit(st[i : i+1])
		if err == nil {
			accepted++
			continue
		}
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
		t.Fatalf("submit: %v", err)
	}
	if !sawFull {
		t.Fatalf("never saw ErrQueueFull after %d accepted edges (depth 8)", accepted)
	}
	// Every acknowledged edge — and no rejected one — is in the log.
	if got := log.LastSeq(); got != uint64(accepted) {
		t.Fatalf("WAL LastSeq = %d, want %d accepted edges", got, accepted)
	}
	close(gate)
	p.Close()
	if got := sum.Items(); got != int64(accepted) {
		t.Fatalf("items after drain = %d, want %d", got, accepted)
	}
}

func TestRecoverOntoCoveringSnapshotReplaysNothing(t *testing.T) {
	const shards = 2
	st := testStreamFor(t, 500)
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snapshot.higgs")
	log := openWAL(t, dir, 0)
	sum := newShardedFor(t, shards)
	p, err := New(sum, Config{WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	snapper := NewSnapshotter(sum, p, log, snapPath, 0, nil)
	submitAll(t, p, st, 50)
	if err := snapper.Snap(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := shard.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	log2 := openWAL(t, dir, 0)
	defer log2.Close()
	replayed, err := Recover(loaded, log2)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("replayed %d edges onto a covering snapshot, want 0", replayed)
	}
	if got := loaded.Items(); got != int64(len(st)) {
		t.Fatalf("items = %d, want %d", got, len(st))
	}
}

// TestNewRefusesSummaryAheadOfLog: a -wal-dir holding another
// directory's snapshot pairs a summary whose watermarks run to 300 with an
// empty log that numbers new edges from 1. Every one of them sits under a
// watermark, so recovery would skip it as a replay: acknowledged edges
// lost without an error. New refuses the pair, naming the shard and both
// sequence numbers. (Without the refusal, a crash after 50 acknowledged
// edges recovers none of them.)
func TestNewRefusesSummaryAheadOfLog(t *testing.T) {
	const shards = 2
	st := testStreamFor(t, 350)
	foreign := newShardedFor(t, shards)
	log := openWAL(t, t.TempDir(), 0)
	p, err := New(foreign, Config{WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, p, st[:300], 50)
	p.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := foreign.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	load := func() *shard.Summary {
		s, err := shard.Read(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	dir := t.TempDir()
	log = openWAL(t, dir, 0)
	sum := load()
	p, err = New(sum, Config{WAL: log})
	if err == nil {
		// Show what accepting the pair costs: 50 acknowledged edges, a
		// crash, and a reboot from the same snapshot and log.
		submitAll(t, p, st[300:], 50)
		p.Close()
		log.Close()
		log = openWAL(t, dir, 0)
		defer log.Close()
		rebooted := load()
		if _, err := Recover(rebooted, log); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("New accepted a summary whose watermarks (%d, %d) run ahead of an empty log; after a crash %d of 50 acknowledged edges were recovered",
			sum.ShardSeq(0), sum.ShardSeq(1), rebooted.Items()-300)
	}
	defer log.Close()
	for _, want := range []string{"shard 0", fmt.Sprint(sum.ShardSeq(0)), "ends at 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("New's refusal %q does not name %q", err, want)
		}
	}
	// The refusal armed no guard: an unlogged delete still runs.
	sum.Delete(st[0])
}

func TestSnapshotterBackgroundLoop(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snapshot.higgs")
	log := openWAL(t, dir, 0)
	defer log.Close()
	sum := newShardedFor(t, 2)
	p, err := New(sum, Config{WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	snapper := NewSnapshotter(sum, p, log, snapPath, 5*time.Millisecond, nil)
	snapper.Start()
	defer snapper.Close()
	st := testStreamFor(t, 200)
	submitAll(t, p, st, 20)
	deadline := time.Now().Add(5 * time.Second)
	for snapper.Status().SnapshotSeq < uint64(len(st)) {
		if time.Now().After(deadline) {
			t.Fatalf("background snapshotter never covered seq %d (at %d)", len(st), snapper.Status().SnapshotSeq)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
}

// TestWriteSnapshotCommitGate: writeSnapshot's beforeRename gate runs
// while the previous snapshot is still in place, and its error abandons
// the new one — the old file stays byte-identical and no temp file is
// left — while a passing gate lets the new snapshot replace it. Snap uses
// the gate to wait for the log to be durable through the encode; a gate
// run after the rename would let a power loss pair a snapshot with a
// shorter log.
func TestWriteSnapshotCommitGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.higgs")
	st := testStreamFor(t, 400)
	sum := newShardedFor(t, 2)
	sum.InsertBatch(st[:200])
	if err := WriteSnapshot(sum, path); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	noTemp := func() {
		t.Helper()
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("temp file left behind: %v", err)
		}
	}
	sum.InsertBatch(st[200:])
	gateErr := errors.New("log not durable")
	err = writeSnapshot(sum, path, func() error {
		if cur, err := os.ReadFile(path); err != nil || !bytes.Equal(cur, old) {
			t.Errorf("the gate ran after the previous snapshot was replaced (%v)", err)
		}
		return gateErr
	})
	if !errors.Is(err, gateErr) {
		t.Fatalf("writeSnapshot with a failing gate = %v, want the gate's error", err)
	}
	if cur, err := os.ReadFile(path); err != nil || !bytes.Equal(cur, old) {
		t.Fatalf("a refused snapshot changed the previous one (%v)", err)
	}
	noTemp()

	if err := writeSnapshot(sum, path, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := sum.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if cur, err := os.ReadFile(path); err != nil || !bytes.Equal(cur, want.Bytes()) || bytes.Equal(cur, old) {
		t.Fatalf("a passing gate did not replace the snapshot (%v)", err)
	}
	noTemp()
}
