package higgs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"higgs"
)

// TestWALFacadeCrashRecovery drives the whole durability surface through
// the public API: a WAL-backed pipeline accepts edges, the process
// "crashes" (no flush, the summary is discarded), and OpenWAL + Recover
// rebuilds a summary answering identically.
func TestWALFacadeCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := higgs.DefaultShardedConfig()
	cfg.Shards = 2

	w, err := higgs.OpenWAL(higgs.WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := higgs.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	icfg := higgs.DefaultIngestConfig()
	icfg.WAL = w
	p, err := higgs.NewIngest(crashed, icfg)
	if err != nil {
		t.Fatal(err)
	}
	edges := []higgs.Edge{
		{S: 1, D: 2, W: 3, T: 10}, {S: 2, D: 3, W: 5, T: 20}, {S: 1, D: 2, W: 4, T: 30},
	}
	if _, err := p.Submit(edges); err != nil {
		t.Fatal(err)
	}
	// Crash: reclaim the goroutines and file handle, discard the summary.
	// Every accepted batch was fsync'd before Submit returned.
	p.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := higgs.OpenWAL(higgs.WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recovered, err := higgs.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := higgs.Recover(recovered, w2)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != int64(len(edges)) {
		t.Fatalf("replayed %d edges, want %d", replayed, len(edges))
	}
	if got := recovered.EdgeWeight(1, 2, 0, 100); got != 7 {
		t.Fatalf("recovered edge 1→2 weight = %d, want 7", got)
	}
	if got := recovered.EdgeWeight(2, 3, 0, 100); got != 5 {
		t.Fatalf("recovered edge 2→3 weight = %d, want 5", got)
	}
}

// TestWALFacadeDurableExpire drives durable retention through the public
// API: Ingest.Expire on a WAL-backed pipeline survives a crash (recovery
// does not resurrect the expired edges), direct Sharded.Expire on the
// WAL-owned summary panics, and the Retainer ticks through the same path.
func TestWALFacadeDurableExpire(t *testing.T) {
	dir := t.TempDir()
	cfg := higgs.DefaultShardedConfig()
	cfg.Shards = 2

	build := func(walDir string) (*higgs.Sharded, *higgs.Ingest, *higgs.WAL) {
		t.Helper()
		w, err := higgs.OpenWAL(higgs.WALConfig{Dir: walDir})
		if err != nil {
			t.Fatal(err)
		}
		s, err := higgs.NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		icfg := higgs.DefaultIngestConfig()
		icfg.WAL = w
		p, err := higgs.NewIngest(s, icfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, p, w
	}
	feed := func(p *higgs.Ingest) int64 {
		t.Helper()
		batch := make([]higgs.Edge, 3000)
		for i := range batch {
			batch[i] = higgs.Edge{S: uint64(i % 50), D: uint64(i%50 + 1), W: 1, T: int64(i)}
		}
		if _, err := p.Submit(batch); err != nil {
			t.Fatal(err)
		}
		dropped, err := p.Expire(1500)
		if err != nil {
			t.Fatal(err)
		}
		if dropped <= 0 {
			t.Fatalf("Expire dropped %d leaves, want > 0", dropped)
		}
		return dropped
	}

	crashed, p, w := build(dir)
	feed(p)
	// Direct expire on the WAL-owned summary is a programming error the
	// facade documents: it must panic, not silently de-synchronize.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("direct Sharded.Expire on a WAL-owned summary did not panic")
			}
		}()
		crashed.Expire(1500)
	}()
	var want bytes.Buffer
	p.Flush()
	if _, err := crashed.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := higgs.OpenWAL(higgs.WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recovered, err := higgs.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := higgs.Recover(recovered, w2); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := recovered.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("recovery diverged from the live post-expire state (%d vs %d bytes): expired edges resurrected",
			got.Len(), want.Len())
	}
}

// TestRetainerFacade runs the public retention loop against a pipeline
// with a pinned clock.
func TestRetainerFacade(t *testing.T) {
	cfg := higgs.DefaultShardedConfig()
	cfg.Shards = 2
	s, err := higgs.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := higgs.NewIngest(s, higgs.DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	batch := make([]higgs.Edge, 3000)
	for i := range batch {
		batch[i] = higgs.Edge{S: uint64(i % 50), D: uint64(i%50 + 1), W: 1, T: int64(i)}
	}
	if _, err := p.Submit(batch); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	r, err := higgs.NewRetainer(p, higgs.RetentionConfig{
		Window: 100 * time.Second,
		Now:    func() time.Time { return time.Unix(3100, 0) }, // cutoff 3000
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dropped, err := r.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if dropped <= 0 || r.Status().Dropped != dropped || r.Status().Runs != 1 {
		t.Fatalf("retainer tick: dropped = %d, counters runs=%d dropped=%d", dropped, r.Status().Runs, r.Status().Dropped)
	}
}

// TestWALFacadeSnapshotter exercises the public snapshot/truncate loop:
// Snap writes an atomic snapshot that LoadSharded restores, and recovery
// onto it replays only the tail.
func TestWALFacadeSnapshotter(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snapshot.higgs")
	cfg := higgs.DefaultShardedConfig()
	cfg.Shards = 2

	w, err := higgs.OpenWAL(higgs.WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s, err := higgs.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	icfg := higgs.DefaultIngestConfig()
	icfg.WAL = w
	p, err := higgs.NewIngest(s, icfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := p.Submit([]higgs.Edge{{S: 1, D: 2, W: 3, T: 10}}); err != nil {
		t.Fatal(err)
	}
	snapper := higgs.NewSnapshotter(s, p, w, snapPath, 0, nil)
	if err := snapper.Snap(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit([]higgs.Edge{{S: 2, D: 3, W: 5, T: 20}}); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := higgs.LoadSharded(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Items(); got != 1 {
		t.Fatalf("snapshot items = %d, want 1 (taken before the second submit)", got)
	}
	replayed, err := higgs.Recover(loaded, w)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 1 {
		t.Fatalf("replayed %d edges onto the snapshot, want exactly the 1-edge tail", replayed)
	}
	if got := loaded.EdgeWeight(2, 3, 0, 100); got != 5 {
		t.Fatalf("recovered tail edge weight = %d, want 5", got)
	}
}
