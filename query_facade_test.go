package higgs_test

import (
	"bytes"
	"strings"
	"testing"

	"higgs"
)

// newSeededSharded builds a small sharded summary with a known graph.
func newSeededSharded(t *testing.T, shards int) *higgs.Sharded {
	t.Helper()
	cfg := higgs.DefaultShardedConfig()
	cfg.Shards = shards
	s, err := higgs.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Insert(higgs.Edge{S: 1, D: 2, W: 3, T: 100})
	s.Insert(higgs.Edge{S: 1, D: 2, W: 4, T: 200})
	s.Insert(higgs.Edge{S: 2, D: 3, W: 5, T: 300})
	s.Insert(higgs.Edge{S: 7, D: 1, W: 2, T: 400})
	return s
}

// TestQueryFacade: the unified query surface — constructors, Do, DoBatch —
// answers exactly like the per-kind methods.
func TestQueryFacade(t *testing.T) {
	s := newSeededSharded(t, 4)
	w := higgs.Between(0, 500)
	batch := []higgs.Query{
		higgs.NewEdgeQuery(1, 2, w),
		higgs.NewVertexQuery(1, w),
		higgs.NewVertexQuery(2, w, higgs.WithDirection(higgs.DirIn)),
		higgs.NewPathQuery([]uint64{1, 2, 3}, w),
		higgs.NewSubgraphQuery([][2]uint64{{1, 2}, {7, 1}}, w),
	}
	want := []int64{
		s.EdgeWeight(1, 2, 0, 500),
		s.VertexOut(1, 0, 500),
		s.VertexIn(2, 0, 500),
		s.PathWeight([]uint64{1, 2, 3}, 0, 500),
		s.SubgraphWeight([][2]uint64{{1, 2}, {7, 1}}, 0, 500),
	}
	for i, r := range s.DoBatch(batch) {
		if r.Err != nil {
			t.Fatalf("batch item %d: %v", i, r.Err)
		}
		if r.Weight != want[i] {
			t.Errorf("batch item %d: weight %d, per-kind %d", i, r.Weight, want[i])
		}
		if single := s.Do(batch[i]); single.Weight != want[i] || single.Err != nil {
			t.Errorf("Do item %d: %+v, per-kind %d", i, single, want[i])
		}
	}
}

// TestQueryFacadeValidation: per-query errors surface through Result.
func TestQueryFacadeValidation(t *testing.T) {
	s := newSeededSharded(t, 2)
	if r := s.Do(higgs.NewEdgeQuery(1, 2, higgs.Between(500, 0))); r.Err == nil ||
		!strings.Contains(r.Err.Error(), "inverted time range") {
		t.Fatalf("inverted range not rejected: %+v", r)
	}
	if r := s.Do(higgs.NewPathQuery([]uint64{1}, higgs.Between(0, 500))); r.Err == nil {
		t.Fatalf("short path not rejected: %+v", r)
	}
	if k, err := higgs.ParseQueryKind("vertex_in"); err != nil || k != higgs.QueryVertexIn {
		t.Fatalf("ParseQueryKind = %v, %v", k, err)
	}
	if _, err := higgs.ParseQueryKind("sideways"); err == nil {
		t.Fatal("ParseQueryKind accepted an unknown name")
	}
}

// TestShardedExpireFacade: sliding-window expiry through the facade.
func TestShardedExpireFacade(t *testing.T) {
	cfg := higgs.DefaultShardedConfig()
	cfg.Shards = 2
	s, err := higgs.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Enough spread-out leaves that a mid-stream cutoff has whole closed
	// subtrees to reclaim.
	st, err := higgs.GenerateStream(higgs.StreamConfig{
		Nodes: 80, Edges: 20_000, Span: 50_000, Skew: 1.5, Variance: 400,
		Slices: 100, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.InsertBatch(st)
	span := st[len(st)-1].T
	cutoff := span / 2

	wantLive := s.VertexOut(st[0].S, cutoff, span)
	dropped := s.Expire(cutoff)
	if dropped <= 0 {
		t.Fatalf("Expire dropped %d leaves, want > 0", dropped)
	}
	if got := s.VertexOut(st[0].S, cutoff, span); got != wantLive {
		t.Fatalf("live-window answer changed across Expire: %d != %d", got, wantLive)
	}

	// The unsharded facade summary exposes Expire too.
	un, err := higgs.New(higgs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range st {
		un.Insert(e)
	}
	if d := un.Expire(cutoff); d <= 0 {
		t.Fatalf("unsharded Expire dropped %d leaves, want > 0", d)
	}
}

// TestLoadShardedLegacyFallback: an unsharded (core-framed) snapshot is
// not a sharded one. LoadSharded refuses it on its magic; Load still reads
// it.
func TestLoadShardedLegacyFallback(t *testing.T) {
	un, err := higgs.New(higgs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	un.Insert(higgs.Edge{S: 4, D: 5, W: 6, T: 10})
	un.Insert(higgs.Edge{S: 5, D: 6, W: 2, T: 20})
	var legacy bytes.Buffer
	if _, err := un.WriteTo(&legacy); err != nil {
		t.Fatal(err)
	}
	if s, err := higgs.LoadSharded(bytes.NewReader(legacy.Bytes())); err == nil || !strings.Contains(err.Error(), "magic") || s != nil {
		t.Fatalf("LoadSharded(core snapshot) = %v, %v; want a magic refusal", s, err)
	}
	back, err := higgs.Load(&legacy)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.EdgeWeight(4, 5, 0, 40); got != 6 {
		t.Fatalf("Load(core snapshot) EdgeWeight = %d, want 6", got)
	}
}
