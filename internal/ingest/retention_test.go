package ingest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"higgs/internal/shard"
	"higgs/internal/stream"
)

// expirePoint interleaves one expire into a stream replay: after the first
// at edges have been submitted, expire everything before cutoff.
type expirePoint struct {
	at     int
	cutoff int64
}

// expirePointsFor picks two deterministic expire points that actually drop
// subtrees on the test stream.
func expirePointsFor(st stream.Stream) []expirePoint {
	return []expirePoint{
		{at: len(st) / 3, cutoff: st[len(st)/6].T},
		{at: 2 * len(st) / 3, cutoff: st[len(st)/3].T},
	}
}

// submitWithExpires replays the stream through the pipeline in fixed
// batches, issuing each expire at its deterministic stream offset — the
// single-producer shape under which two runs assign every edge and every
// expire identical WAL sequence numbers. It returns the total leaves
// dropped.
func submitWithExpires(t *testing.T, p *Pipeline, st stream.Stream, batch int, exps []expirePoint) int64 {
	t.Helper()
	var dropped int64
	next := 0
	for lo := 0; lo < len(st); lo += batch {
		hi := lo + batch
		if hi > len(st) {
			hi = len(st)
		}
		for next < len(exps) && exps[next].at <= lo {
			d, err := p.Expire(exps[next].cutoff)
			if err != nil {
				t.Fatalf("expire at %d: %v", exps[next].at, err)
			}
			dropped += d
			next++
		}
		submitAll(t, p, st[lo:hi], batch)
	}
	for next < len(exps) {
		d, err := p.Expire(exps[next].cutoff)
		if err != nil {
			t.Fatalf("expire at %d: %v", exps[next].at, err)
		}
		dropped += d
		next++
	}
	return dropped
}

// cleanReferenceWithExpires is cleanReference with interleaved durable
// expires: the byte-identity reference for retention recovery.
func cleanReferenceWithExpires(t *testing.T, st stream.Stream, shards, batch int, exps []expirePoint) []byte {
	t.Helper()
	dir := t.TempDir()
	log := openWAL(t, dir, 0)
	sum := newShardedFor(t, shards)
	p, err := New(sum, Config{WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	if dropped := submitWithExpires(t, p, st, batch, exps); dropped <= 0 {
		t.Fatalf("clean reference dropped %d leaves; the expire points are toothless", dropped)
	}
	p.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return snapshotBytes(t, sum)
}

// TestRecoverReplaysExpires is the tentpole's unit gate: a crash after
// interleaved durable expires must recover — by pure WAL replay — to a
// summary byte-identical to a clean run, i.e. expired edges
// stay expired instead of being resurrected.
func TestRecoverReplaysExpires(t *testing.T) {
	const shards, batch = 4, 64
	st := testStreamFor(t, 4000)
	exps := expirePointsFor(st)
	want := cleanReferenceWithExpires(t, st, shards, batch, exps)

	dir := t.TempDir()
	log := openWAL(t, dir, 0)
	crashed := newShardedFor(t, shards)
	p, err := New(crashed, Config{QueueDepth: 256, CommitInterval: 50 * time.Microsecond, WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	submitWithExpires(t, p, st, batch, exps)
	// Simulated crash: only the fsync'd log survives.
	p.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2 := openWAL(t, dir, 0)
	defer log2.Close()
	recovered := newShardedFor(t, shards)
	if _, err := Recover(recovered, log2); err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, recovered); !bytes.Equal(got, want) {
		t.Fatalf("recovery resurrected expired edges: snapshot diverges from clean run (%d vs %d bytes)",
			len(got), len(want))
	}
}

// TestRecoverExpireSnapshotPlusTail: a snapshot taken between two expires
// must not double-apply the covered expire on replay, while the tail's
// expire still runs — the per-shard watermark seam, exercised for expire
// records.
func TestRecoverExpireSnapshotPlusTail(t *testing.T) {
	const shards, batch = 4, 64
	st := testStreamFor(t, 4000)
	exps := expirePointsFor(st)
	want := cleanReferenceWithExpires(t, st, shards, batch, exps)

	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snapshot.higgs")
	log := openWAL(t, dir, 4096)
	crashed := newShardedFor(t, shards)
	p, err := New(crashed, Config{QueueDepth: 256, CommitInterval: 50 * time.Microsecond, WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	snapper := NewSnapshotter(crashed, p, log, snapPath, 0, nil)

	// First third + first expire, then a covering snapshot, then the rest:
	// recovery must skip the snapshotted expire and replay the tail's.
	mid := len(st) / 2
	submitWithExpires(t, p, st[:mid], batch, exps[:1])
	if err := snapper.Snap(); err != nil {
		t.Fatal(err)
	}
	tail := []expirePoint{{at: exps[1].at - mid, cutoff: exps[1].cutoff}}
	submitWithExpires(t, p, st[mid:], batch, tail)
	p.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

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
		t.Fatalf("replayed %d edges; want a strict tail of %d", replayed, len(st))
	}
	if got := snapshotBytes(t, recovered); !bytes.Equal(got, want) {
		t.Fatalf("snapshot+tail retention recovery diverges from clean run (%d vs %d bytes)",
			len(got), len(want))
	}
}

// TestPipelineExpireBarrier: Expire is sequenced after every batch
// accepted before it — queued edges are applied (and thus expirable)
// before the expire runs, even with committers parked on a long interval.
func TestPipelineExpireBarrier(t *testing.T) {
	sum := newShardedFor(t, 2)
	p, err := New(sum, Config{QueueDepth: 4096, CommitInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	st := testStreamFor(t, 2000)
	submitAll(t, p, st, 100)
	span := st[len(st)-1].T
	dropped, err := p.Expire(span + 1) // everything is expirable
	if err != nil {
		t.Fatal(err)
	}
	if dropped <= 0 {
		t.Fatalf("Expire dropped %d leaves; queued edges were not applied before the expire", dropped)
	}
	if got := sum.Items(); got != int64(len(st)) {
		t.Fatalf("items = %d, want %d (the barrier must flush, not drop)", got, len(st))
	}
}

// TestPipelineExpireClosed: Expire after Close reports ErrClosed.
func TestPipelineExpireClosed(t *testing.T) {
	sum := newShardedFor(t, 1)
	p, err := New(sum, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Expire(10); !errors.Is(err, ErrClosed) {
		t.Fatalf("Expire on closed pipeline: %v", err)
	}
}

// TestDirectExpirePanicsWhenWALOwned: building a WAL-backed pipeline over
// a summary arms the guard — a direct Sharded.Expire would be silently
// undone by recovery, so it must be unreachable by accident, through every
// entry point an unlogged expire can take.
func TestDirectExpirePanicsWhenWALOwned(t *testing.T) {
	dir := t.TempDir()
	log := openWAL(t, dir, 0)
	defer log.Close()
	sum := newShardedFor(t, 2)
	p, err := New(sum, Config{WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m := stream.Mutation{Kind: stream.Expire, Cutoff: 100}
	mustPanicHere(t, "Expire", func() { sum.Expire(100) })
	mustPanicHere(t, "ExpireAt(c, 0)", func() { sum.ExpireAt(100, 0) })
	mustPanicHere(t, "Mutate(0, expire)", func() { sum.Mutate(0, m) })
	mustPanicHere(t, "Apply(i, 0, expire)", func() { sum.Apply(1, 0, m) })
}

// mustPanicHere fails the test unless f panics on the calling goroutine:
// the guard must fire before an all-shard op fans out, since a panic on
// one of its per-shard goroutines kills the process instead.
func mustPanicHere(t *testing.T, entry string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("unlogged %s on a WAL-owned summary did not panic", entry)
		}
	}()
	f()
}

// TestRetainerTicks: the retainer enforces now−Window through the
// pipeline and keeps its counters.
func TestRetainerTicks(t *testing.T) {
	sum := newShardedFor(t, 2)
	p, err := New(sum, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	st := testStreamFor(t, 2000)
	span := st[len(st)-1].T
	submitAll(t, p, st, 100)

	// A clock far past the stream: everything is older than the window.
	now := time.Unix(span+1000, 0)
	r, err := NewRetainer(func() *Pipeline { return p }, RetentionConfig{
		Window: 100 * time.Second,
		Now:    func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := r.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if dropped <= 0 {
		t.Fatalf("Tick dropped %d leaves, want > 0", dropped)
	}
	if r.Status().Runs != 1 || r.Status().Dropped != dropped {
		t.Fatalf("counters: runs = %d dropped = %d, want 1, %d", r.Status().Runs, r.Status().Dropped, dropped)
	}
	if want := now.Add(-100 * time.Second).Unix(); r.Status().LastCutoff != want {
		t.Fatalf("LastCutoff = %d, want %d", r.Status().LastCutoff, want)
	}
	if r.Status().LastUnix == 0 {
		t.Fatal("LastTime not recorded")
	}
	r.Close() // never started: Close must not hang
}

// TestRetainerBackgroundLoop: Start runs ticks on the interval until
// Close.
func TestRetainerBackgroundLoop(t *testing.T) {
	sum := newShardedFor(t, 1)
	p, err := New(sum, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r, err := NewRetainer(func() *Pipeline { return p }, RetentionConfig{Window: time.Second, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	deadline := time.Now().Add(5 * time.Second)
	for r.Status().Runs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background retainer never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	r.Close()
	runs := r.Status().Runs
	time.Sleep(5 * time.Millisecond)
	if r.Status().Runs != runs {
		t.Fatal("retainer kept ticking after Close")
	}
}

// TestRetentionConfigValidate rejects the nonsensical shapes.
func TestRetentionConfigValidate(t *testing.T) {
	src := func() *Pipeline { return nil }
	if _, err := NewRetainer(nil, RetentionConfig{Window: time.Hour}); err == nil {
		t.Fatal("nil pipeline source accepted")
	}
	if _, err := NewRetainer(src, RetentionConfig{}); err == nil {
		t.Fatal("zero Window accepted")
	}
	if _, err := NewRetainer(src, RetentionConfig{Window: -time.Second}); err == nil {
		t.Fatal("negative Window accepted")
	}
	if _, err := NewRetainer(src, RetentionConfig{Window: time.Hour, Interval: -1}); err == nil {
		t.Fatal("negative Interval accepted")
	}
}

// TestRetainerFollowsPipelineSwap: the pipeline source is re-resolved on
// every tick, so retention survives the serving pipeline being replaced
// (the HTTP server's snapshot upload) instead of dying with the old one.
func TestRetainerFollowsPipelineSwap(t *testing.T) {
	sumA := newShardedFor(t, 1)
	pA, err := New(sumA, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var current atomic.Pointer[Pipeline]
	current.Store(pA)
	r, err := NewRetainer(func() *Pipeline { return current.Load() }, RetentionConfig{
		Window: 100 * time.Second,
		Now:    func() time.Time { return time.Unix(10_000, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Tick(); err != nil {
		t.Fatalf("tick on the original pipeline: %v", err)
	}
	// Swap: the old pipeline closes (as handleSnapshot does), a new one
	// takes over. Ticks must hit the new pipeline, not ErrClosed.
	sumB := newShardedFor(t, 1)
	pB, err := New(sumB, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pB.Close()
	current.Store(pB)
	pA.Close()
	if _, err := r.Tick(); err != nil {
		t.Fatalf("tick after pipeline swap: %v (retention died with the old pipeline)", err)
	}
	if r.Status().Runs != 2 {
		t.Fatalf("runs = %d, want 2", r.Status().Runs)
	}
}
