package ingest

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"higgs/internal/shard"
	"higgs/internal/stream"
)

func newSharded(t *testing.T, shards int) *shard.Summary {
	t.Helper()
	cfg := shard.DefaultConfig()
	cfg.Shards = shards
	s, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newPipeline(t *testing.T, s *shard.Summary, cfg Config) *Pipeline {
	t.Helper()
	p, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func genStream(t *testing.T, edges int, seed int64) stream.Stream {
	t.Helper()
	st, err := stream.Generate(stream.Config{
		Nodes: 120, Edges: edges, Span: 50_000, Skew: 2.0, Variance: 700,
		Slices: 100, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sameShardEdges returns n distinct edges that all hash to one shard of s,
// with non-decreasing timestamps — the deterministic way to fill exactly
// one queue.
func sameShardEdges(t *testing.T, s *shard.Summary, n int) []stream.Edge {
	t.Helper()
	want := s.ShardFor(1)
	var out []stream.Edge
	for v := uint64(1); len(out) < n; v++ {
		if s.ShardFor(v) != want {
			continue
		}
		out = append(out, stream.Edge{S: v, D: v + 1, W: 1, T: int64(len(out))})
	}
	return out
}

// TestAsyncFlushVisibility: async submits are not required to be visible
// immediately, but after Flush every accepted edge must be, and the
// estimates must match a synchronous ingest of the same stream exactly.
func TestAsyncFlushVisibility(t *testing.T) {
	st := genStream(t, 5_000, 7)
	s := newSharded(t, 4)
	p := newPipeline(t, s, Config{CommitInterval: time.Millisecond})
	for i := 0; i < len(st); i += 3 {
		end := min(i+3, len(st))
		for {
			if _, err := p.Submit(st[i:end]); err == nil {
				break
			} else if !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
		}
	}
	p.Flush()
	if got := s.Items(); got != int64(len(st)) {
		t.Fatalf("Items after Flush = %d, want %d", got, len(st))
	}

	ref := newSharded(t, 4)
	ref.InsertBatch(st)
	for _, e := range st[:200] {
		want := ref.EdgeWeight(e.S, e.D, 0, 50_000)
		if got := s.EdgeWeight(e.S, e.D, 0, 50_000); got != want {
			t.Fatalf("EdgeWeight(%d,%d) = %d, sync ingest gives %d", e.S, e.D, got, want)
		}
	}
}

// TestBackpressureQueueFull: with the committer blocked, a full queue
// rejects promptly (no deadlock), rejections are all-or-nothing, and once
// the committer resumes, Flush observes everything that was accepted.
func TestBackpressureQueueFull(t *testing.T) {
	s := newSharded(t, 4)
	p, err := New(s, Config{QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	gate := make(chan struct{})
	var gateOnce sync.Once
	p.applyHook = func(int, []stream.Edge) { <-gate }
	defer gateOnce.Do(func() { close(gate) })

	edges := sameShardEdges(t, s, 24)
	// The committer may drain the first group before blocking in the hook,
	// so keep admitting until a batch is rejected; with the hook never
	// released, at most QueueDepth+1 groups of 2 can ever be accepted.
	var accepted int
	var sawFull bool
	for i := 0; i+2 <= len(edges); i += 2 {
		if _, err := p.Submit(edges[i : i+2]); err == nil {
			accepted += 2
		} else if errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		} else {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatalf("never saw ErrQueueFull after %d accepted edges (depth 8)", accepted)
	}
	if pend := p.Pending(); pend > int64(accepted) {
		t.Fatalf("Pending = %d > accepted %d", pend, accepted)
	}

	// Unblock the committer; the barrier must then drain exactly the
	// accepted edges — the rejected batch left no partial state behind.
	gateOnce.Do(func() { close(gate) })
	p.Flush()
	if got := s.Items(); got != int64(accepted) {
		t.Fatalf("Items = %d, want accepted %d", got, accepted)
	}
	if pend := p.Pending(); pend != 0 {
		t.Fatalf("Pending after Flush = %d", pend)
	}
}

// TestOversizedBatchAdmitsIntoEmptyQueue: a batch larger than QueueDepth
// is accepted when the queue is empty (otherwise it could never be
// admitted at all) and rejected while a backlog exists.
func TestOversizedBatchAdmitsIntoEmptyQueue(t *testing.T) {
	s := newSharded(t, 2)
	p, err := New(s, Config{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	gate := make(chan struct{})
	p.applyHook = func(int, []stream.Edge) { <-gate }
	defer close(gate)

	edges := sameShardEdges(t, s, 20)
	if _, err := p.Submit(edges[:10]); err != nil {
		t.Fatalf("oversized batch into empty queue: %v", err)
	}
	// The committer now either holds those 10 in the hook (queue empty) or
	// hasn't taken them yet (queue holds 10 > depth); either way a second
	// batch must observe backlog semantics, not crash.
	if _, err := p.Submit(edges[10:20]); err != nil && !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second batch: %v", err)
	}
}

// TestCloseDrainsPending is the shutdown contract: Close applies every
// accepted edge before returning — async ingest followed by Close loses
// nothing, and the summary (closed after the pipeline, per the documented
// order) answers exactly like a synchronous ingest.
func TestCloseDrainsPending(t *testing.T) {
	st := genStream(t, 4_000, 11)
	s := newSharded(t, 4)
	// A long commit interval guarantees a backlog exists when Close runs.
	p, err := New(s, Config{CommitInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(st); i += 5 {
		end := min(i+5, len(st))
		for {
			if _, err := p.Submit(st[i:end]); err == nil {
				break
			} else if !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
		}
	}
	p.Close()
	if got := s.Items(); got != int64(len(st)) {
		t.Fatalf("Items after Close = %d, want %d (Close dropped pending batches)", got, len(st))
	}
	if _, err := p.Submit(st[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	p.Close() // idempotent
}

// TestConcurrentSubmitFlushQuery drives concurrent posters, periodic
// flushes, and queries through one pipeline (run with -race). Posters
// partition the stream by shard so per-shard order is deterministic, which
// lets the final check demand exact agreement with synchronous ingest.
func TestConcurrentSubmitFlushQuery(t *testing.T) {
	st := genStream(t, 24_000, 19)
	s := newSharded(t, 8)
	p := newPipeline(t, s, Config{QueueDepth: 256, CommitInterval: 200 * time.Microsecond})

	parts := make([][]stream.Edge, s.NumShards())
	for _, e := range st {
		i := s.ShardFor(e.S)
		parts[i] = append(parts[i], e)
	}
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(part []stream.Edge) {
			defer wg.Done()
			for i := 0; i < len(part); i += 4 {
				end := min(i+4, len(part))
				for {
					if _, err := p.Submit(part[i:end]); err == nil {
						break
					} else if !errors.Is(err, ErrQueueFull) {
						t.Error(err)
						return
					}
				}
			}
		}(part)
	}
	done := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // flusher
		defer aux.Done()
		for {
			select {
			case <-done:
				return
			default:
				p.Flush()
			}
		}
	}()
	go func() { // reader
		defer aux.Done()
		for v := uint64(0); ; v = (v + 1) % 120 {
			select {
			case <-done:
				return
			default:
				if s.EdgeWeight(v, v+1, 0, 50_000) < 0 {
					t.Error("negative estimate")
					return
				}
				_ = s.VertexIn(v, 0, 50_000)
			}
		}
	}()
	wg.Wait()
	p.Flush()
	close(done)
	aux.Wait()

	if got := s.Items(); got != int64(len(st)) {
		t.Fatalf("Items = %d, want %d", got, len(st))
	}
	ref := newSharded(t, 8)
	ref.InsertBatch(st)
	s.Finalize()
	ref.Finalize()
	var gotBuf, wantBuf bytes.Buffer
	if _, err := s.WriteTo(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.WriteTo(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		t.Fatal("snapshot after concurrent async ingest differs from synchronous ingest")
	}
}

// TestFlushDoesNotWaitForCommitInterval: a flush must cut a long
// accumulation window short, not sleep it out.
func TestFlushDoesNotWaitForCommitInterval(t *testing.T) {
	s := newSharded(t, 2)
	p := newPipeline(t, s, Config{CommitInterval: time.Hour})
	if _, err := p.Submit([]stream.Edge{{S: 1, D: 2, W: 5, T: 10}}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	p.Flush()
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Flush took %v with a 1h commit interval", d)
	}
	if got := s.EdgeWeight(1, 2, 0, 20); got != 5 {
		t.Fatalf("EdgeWeight after Flush = %d, want 5", got)
	}
}

func TestConfigValidate(t *testing.T) {
	s := newSharded(t, 2)
	if _, err := New(s, Config{QueueDepth: -1}); err == nil {
		t.Fatal("negative QueueDepth accepted")
	}
	if _, err := New(s, Config{CommitInterval: -time.Second}); err == nil {
		t.Fatal("negative CommitInterval accepted")
	}
	p, err := New(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got, want := p.cfg, (Config{QueueDepth: DefaultConfig().QueueDepth}); got != want {
		t.Fatalf("Config{} resolved to %+v, want the defaults %+v", got, want)
	}
}
