package trq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"higgs/internal/exact"
	"higgs/internal/stream"
)

// allLevels allows every level: the full dyadic decomposition.
func allLevels(int) bool { return true }

// TestDecomposeCoversExactly: the blocks must tile [ts, te] exactly —
// disjoint, in order, and covering every timestamp.
func TestDecomposeCoversExactly(t *testing.T) {
	check := func(ts, te int64, allowed func(int) bool) {
		blocks := Decompose(ts, te, 30, allowed)
		next := uint64(ts)
		for _, b := range blocks {
			lo := b.Index << b.Level
			hi := lo + (1 << b.Level) - 1
			if lo != next {
				t.Fatalf("[%d,%d]: block %+v starts at %d, want %d", ts, te, b, lo, next)
			}
			if !allowed(b.Level) && b.Level != 0 {
				t.Fatalf("[%d,%d]: disallowed level %d used", ts, te, b.Level)
			}
			next = hi + 1
		}
		if next != uint64(te)+1 {
			t.Fatalf("[%d,%d]: coverage ends at %d", ts, te, next-1)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		ts := int64(rng.Intn(1 << 20))
		te := ts + int64(rng.Intn(1<<20))
		check(ts, te, allLevels)
		check(ts, te, EvenLevels)
	}
	check(0, 0, allLevels)
	check(5, 5, allLevels)
	check(0, (1<<25)-1, allLevels)
}

func TestDecomposeBlockCountBound(t *testing.T) {
	// With all levels allowed, a classic dyadic cover uses ≤ 2·maxLevel
	// blocks (+1 for the top block).
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		ts := int64(rng.Intn(1 << 24))
		te := ts + int64(rng.Intn(1<<24))
		all := Decompose(ts, te, 30, allLevels)
		if len(all) > 2*30+1 {
			t.Fatalf("[%d,%d]: %d blocks exceeds bound", ts, te, len(all))
		}
		// The compact (even-levels) variant may use more blocks, never fewer.
		even := Decompose(ts, te, 30, EvenLevels)
		if len(even) < len(all) {
			t.Fatalf("[%d,%d]: even-level cover smaller than full cover", ts, te)
		}
	}
}

func TestDecomposeEdgeCases(t *testing.T) {
	if got := Decompose(10, 5, 30, allLevels); got != nil {
		t.Errorf("inverted range: %v", got)
	}
	if got := Decompose(-100, 3, 30, allLevels); len(got) == 0 {
		t.Error("negative ts should clamp, not vanish")
	} else if got[0].Index<<got[0].Level != 0 {
		t.Error("clamped range should start at 0")
	}
	// maxLevel 0 degenerates to per-timestamp blocks.
	if got := Decompose(0, 7, 0, allLevels); len(got) != 8 {
		t.Errorf("maxLevel 0 gave %d blocks, want 8", len(got))
	}
}

func TestDecomposeAlignedRangeProperty(t *testing.T) {
	// A perfectly aligned power-of-two range decomposes into one block.
	f := func(lvl uint8, idx uint16) bool {
		l := int(lvl % 20)
		lo := int64(idx) << l
		hi := lo + (1 << l) - 1
		blocks := Decompose(lo, hi, 30, allLevels)
		return len(blocks) == 1 && blocks[0].Level == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLevelsForSpan(t *testing.T) {
	cases := []struct {
		span int64
		want int
	}{{1, 0}, {2, 1}, {3, 2}, {1024, 10}, {1025, 11}}
	for _, c := range cases {
		if got := LevelsForSpan(c.span, 40); got != c.want {
			t.Errorf("LevelsForSpan(%d) = %d, want %d", c.span, got, c.want)
		}
	}
	if got := LevelsForSpan(1<<50, 25); got != 25 {
		t.Errorf("cap not applied: %d", got)
	}
	if got := LevelsForSpan(0, 25); got != 0 {
		t.Errorf("LevelsForSpan(0) = %d", got)
	}
}

func buildStore(t *testing.T) *exact.Store {
	t.Helper()
	s, err := stream.Generate(stream.Config{Nodes: 200, Edges: 5000, Span: 100000, Skew: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return exact.FromStream(s)
}

func TestWorkloadEdgeQueries(t *testing.T) {
	st := buildStore(t)
	w := NewWorkload(st, 1)
	qs := w.EdgeQueries(100, 1000)
	if len(qs) != 100 {
		t.Fatalf("got %d queries", len(qs))
	}
	nonZero := 0
	for _, q := range qs {
		if q.Te-q.Ts+1 != 1000 {
			t.Fatalf("window length %d, want 1000", q.Te-q.Ts+1)
		}
		if st.EdgeWeight(q.S, q.D, 0, 1<<40) == 0 {
			t.Fatalf("sampled edge (%d,%d) not in stream", q.S, q.D)
		}
		if st.EdgeWeight(q.S, q.D, q.Ts, q.Te) > 0 {
			nonZero++
		}
	}
	_ = nonZero // windows may legitimately miss the edge's activity
}

func TestWorkloadWindowClamp(t *testing.T) {
	st := buildStore(t)
	w := NewWorkload(st, 2)
	first, last := st.Span()
	for _, q := range w.EdgeQueries(50, 1<<40) {
		if q.Ts != first || q.Te != last {
			t.Fatalf("oversize window should clamp to lifetime, got [%d,%d]", q.Ts, q.Te)
		}
	}
}

func TestWorkloadPathQueries(t *testing.T) {
	st := buildStore(t)
	w := NewWorkload(st, 3)
	for _, hops := range []int{1, 3, 7} {
		qs := w.PathQueries(50, hops, 1000)
		for _, q := range qs {
			if len(q.Path) != hops+1 {
				t.Fatalf("hops=%d: path length %d", hops, len(q.Path))
			}
		}
	}
}

func TestWorkloadSubgraphQueries(t *testing.T) {
	st := buildStore(t)
	w := NewWorkload(st, 4)
	qs := w.SubgraphQueries(20, 50, 1000)
	for _, q := range qs {
		if len(q.Edges) != 50 {
			t.Fatalf("subgraph size %d, want 50", len(q.Edges))
		}
	}
}

func TestWorkloadVertexQueries(t *testing.T) {
	st := buildStore(t)
	w := NewWorkload(st, 5)
	qs := w.VertexQueries(40, 500)
	outs := 0
	for _, q := range qs {
		if q.Out {
			outs++
		}
	}
	if outs == 0 || outs == 40 {
		t.Fatalf("vertex queries should mix out/in, got %d/40 out", outs)
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	st := buildStore(t)
	a := NewWorkload(st, 7).EdgeQueries(20, 100)
	b := NewWorkload(st, 7).EdgeQueries(20, 100)
	for i := range a {
		if a[i].Ts != b[i].Ts || a[i].S != b[i].S {
			t.Fatal("workload not deterministic per seed")
		}
	}
}

// pathSummary wraps exact.Store as a trq.Summary for the generic helpers.
type pathSummary struct{ st *exact.Store }

func (p pathSummary) Name() string         { return "exact" }
func (p pathSummary) Insert(e stream.Edge) { p.st.Insert(e) }
func (p pathSummary) EdgeWeight(s, d uint64, ts, te int64) int64 {
	return p.st.EdgeWeight(s, d, ts, te)
}
func (p pathSummary) VertexOut(v uint64, ts, te int64) int64 { return p.st.VertexOut(v, ts, te) }
func (p pathSummary) VertexIn(v uint64, ts, te int64) int64  { return p.st.VertexIn(v, ts, te) }
func (p pathSummary) SpaceBytes() int64                      { return 0 }

func TestGenericPathAndSubgraph(t *testing.T) {
	st := exact.New()
	st.Insert(stream.Edge{S: 1, D: 2, W: 1, T: 1})
	st.Insert(stream.Edge{S: 2, D: 3, W: 2, T: 2})
	s := pathSummary{st}
	if got := PathWeight(s, []uint64{1, 2, 3}, 0, 10); got != 3 {
		t.Errorf("PathWeight = %d, want 3", got)
	}
	if got := SubgraphWeight(s, [][2]uint64{{1, 2}, {2, 3}}, 0, 10); got != 3 {
		t.Errorf("SubgraphWeight = %d, want 3", got)
	}
	Finalize(s) // no-op, must not panic
}
