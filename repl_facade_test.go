package higgs_test

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"higgs"
)

// TestReplicationFacade drives the replication surface through the public
// API: a WAL-backed primary serves its feed, a follower boots and tails
// it, and the replicated summary is byte-identical to the primary's.
func TestReplicationFacade(t *testing.T) {
	dir := t.TempDir()
	cfg := higgs.DefaultShardedConfig()
	cfg.Shards = 2

	w, err := higgs.OpenWAL(higgs.WALConfig{Dir: filepath.Join(dir, "wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sum, err := higgs.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	icfg := higgs.DefaultIngestConfig()
	icfg.WAL = w
	pipe, err := higgs.NewIngest(sum, icfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	srv := httptest.NewServer(higgs.NewReplicationPrimary(sum, w).Handler())
	defer srv.Close()

	st, err := higgs.GenerateStream(higgs.StreamConfig{
		Nodes: 60, Edges: 800, Span: 1000, Skew: 1.5, Variance: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Submit(st[:len(st)/2]); err != nil {
		t.Fatal(err)
	}

	f, err := higgs.NewFollower(higgs.FollowerConfig{
		Source:        srv.URL,
		PollWait:      100 * time.Millisecond,
		RetryInterval: 20 * time.Millisecond,
		OnError:       func(err error) { t.Logf("follower: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := pipe.Submit(st[len(st)/2:]); err != nil {
		t.Fatal(err)
	}
	if !f.WaitApplied(w.LastSeq(), 30*time.Second) {
		t.Fatalf("follower stuck at %d, want %d", f.Status().AppliedSeq, w.LastSeq())
	}

	pipe.Flush() // the follower applied every durable record; so must the primary
	var want, got bytes.Buffer
	if _, err := sum.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Summary().WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("replica differs from primary (%d vs %d bytes)", got.Len(), want.Len())
	}
	sameAggregates(t, f.Summary().Stats(), sum.Stats())
	st2 := f.Status()
	if st2.AppliedSeq == 0 || st2.PrimarySeq < st2.AppliedSeq {
		t.Fatalf("status = %+v", st2)
	}
}
