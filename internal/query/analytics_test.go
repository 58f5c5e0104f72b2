package query

import (
	"strings"
	"testing"
)

// TestValidateCodes pins the stable error-code vocabulary (DESIGN.md §17):
// clients branch on these strings, so a rename is a wire break.
func TestValidateCodes(t *testing.T) {
	cases := []struct {
		name string
		q    Query
		code string
	}{
		{"valid edge", NewEdge(1, 2, 0, 10), ""},
		{"inverted", NewEdge(1, 2, 10, 5), CodeInvertedWindow},
		{"zero window", NewEdge(1, 2, 0, 0), CodeZeroWindow},
		{"zero vertex window", NewVertexOut(1, 0, 0), CodeZeroWindow},
		{"missing kind", Query{Ts: 0, Te: 1}, CodeMissingKind},
		{"unknown kind", Query{Kind: Kind(42), Ts: 0, Te: 1}, CodeUnknownKind},
		{"short path", NewPath([]uint64{1}, 0, 10), CodeShortPath},
		{"empty subgraph", NewSubgraph(nil, 0, 10), CodeEmptySubgraph},

		{"valid delta vertex", NewDeltaVertex([]uint64{1}, 0, 10, 11, 20), ""},
		{"delta no candidates", NewDeltaVertex(nil, 0, 10, 11, 20), CodeMissingCandidates},
		{"delta too many candidates",
			NewDeltaVertex(make([]uint64, MaxCandidates+1), 0, 10, 11, 20), CodeTooManyCandidates},
		{"delta inverted base", NewDeltaVertex([]uint64{1}, 10, 0, 11, 20), CodeInvertedWindow},
		{"delta zero base", NewDeltaVertex([]uint64{1}, 0, 0, 11, 20), CodeZeroWindow},
		{"delta inverted compare", NewDeltaVertex([]uint64{1}, 0, 10, 20, 11), CodeInvertedWindow},
		{"delta zero compare", NewDeltaVertex([]uint64{1}, 0, 10, 0, 0), CodeZeroWindow},
		{"delta bad dir",
			Query{Kind: KindDeltaVertex, Candidates: []uint64{1}, Ts: 0, Te: 10, Ts2: 11, Te2: 20, Dir: "up"},
			CodeBadDirection},
		{"delta bad k",
			Query{Kind: KindDeltaVertex, Candidates: []uint64{1}, Ts: 0, Te: 10, Ts2: 11, Te2: 20, K: MaxTopK + 1},
			CodeBadTopK},

		{"valid delta edge", NewDeltaEdge([][2]uint64{{1, 2}}, 0, 10, 11, 20), ""},
		{"delta edge empty", NewDeltaEdge(nil, 0, 10, 11, 20), CodeEmptySubgraph},
		{"delta edge too many",
			NewDeltaEdge(make([][2]uint64, MaxCandidates+1), 0, 10, 11, 20), CodeTooManyCandidates},

		{"valid heavy hitters", NewHeavyHitters(DirIn, 5), ""},
		// Sketch-served kinds have no window to validate — the zero window
		// must NOT reject them.
		{"heavy hitters no window", NewHeavyHitters("", 0), ""},
		{"heavy hitters bad dir", NewHeavyHitters("both", 5), CodeBadDirection},
		{"heavy hitters bad k", NewHeavyHitters(DirOut, -1), CodeBadTopK},
		{"valid burst", NewBurst(0), ""},
		{"burst bad k", NewBurst(MaxTopK + 1), CodeBadTopK},
	}
	for _, c := range cases {
		err := c.q.Validate()
		if c.code == "" {
			if err != nil {
				t.Errorf("%s: Validate = %v, want nil", c.name, err)
			}
			continue
		}
		if got := ErrCode(err); got != c.code {
			t.Errorf("%s: code = %q (err %v), want %q", c.name, got, err, c.code)
		}
	}
	if ErrCode(nil) != "" {
		t.Error("ErrCode(nil) should be empty")
	}
}

func TestProbeCountAnalytics(t *testing.T) {
	cands := []uint64{1, 2, 3}
	edges := [][2]uint64{{1, 2}, {2, 3}}
	cases := []struct {
		q    Query
		n    int
		want int
	}{
		{NewDeltaVertex(cands, 0, 10, 11, 20), 4, 6},  // 2 windows × 3 candidates
		{NewDeltaVertex(cands, 0, 10, 11, 20), 16, 6}, // out-direction: shard count irrelevant
		{func() Query {
			q := NewDeltaVertex(cands, 0, 10, 11, 20)
			q.Dir = DirIn
			return q
		}(), 4, 24}, // in-direction fans out: 2 × 4 shards × 3 candidates
		{NewDeltaEdge(edges, 0, 10, 11, 20), 8, 4}, // 2 windows × 2 edges
		// Sketch-served kinds never touch a shard but still count 1, so rate
		// budgets meter them.
		{NewHeavyHitters(DirOut, 10), 8, 1},
		{NewBurst(10), 8, 1},
		// Invalid analytics queries plan nothing.
		{NewDeltaVertex(nil, 0, 10, 11, 20), 8, 0},
		{NewDeltaVertex(cands, 0, 10, 0, 0), 8, 0},
	}
	for _, c := range cases {
		if got := c.q.ProbeCount(c.n); got != c.want {
			t.Errorf("ProbeCount(%+v, %d) = %d, want %d", c.q, c.n, got, c.want)
		}
	}
}

// TestDeltaVertex: delta answers must equal the difference of the two
// one-sided window estimates the scalar kinds would report, ranked by
// |delta| descending.
func TestDeltaVertex(t *testing.T) {
	for _, shards := range []int{1, 3} {
		f := newFakeProber(shards)
		seedFake(f)
		// Windows: base [0,35] vs compare [36,100].
		// Vertex 1 out: base 3+4+5=12, compare 0 → delta −12.
		// Vertex 2 out: base 0, compare 7 → delta 7.
		// Vertex 5 out: base 0, compare 1 → delta 1.
		q := NewDeltaVertex([]uint64{1, 2, 5}, 0, 35, 36, 100)
		rs := DoBatch(f, []Query{q})
		if rs[0].Err != nil {
			t.Fatalf("shards=%d: %v", shards, rs[0].Err)
		}
		top := rs[0].Top
		if len(top) != 3 {
			t.Fatalf("shards=%d: %d entries, want 3", shards, len(top))
		}
		wants := []struct {
			v                uint64
			prev, cur, delta int64
		}{{1, 12, 0, -12}, {2, 0, 7, 7}, {5, 0, 1, 1}}
		for i, w := range wants {
			e := top[i]
			if e.S != w.v || e.Prev != w.prev || e.Cur != w.cur || e.Delta != w.delta {
				t.Errorf("shards=%d rank %d: %+v, want v=%d prev=%d cur=%d delta=%d",
					shards, i, e, w.v, w.prev, w.cur, w.delta)
			}
		}
	}
}

// TestDeltaVertexIn: in-direction deltas fan each window estimate across
// every shard and must still sum correctly.
func TestDeltaVertexIn(t *testing.T) {
	f := newFakeProber(3)
	seedFake(f)
	// Vertex 1 in: 3→1 (2@50), 4→1 (9@60). Base [0,55]=2, compare [56,100]=9.
	q := NewDeltaVertex([]uint64{1}, 0, 55, 56, 100)
	q.Dir = DirIn
	rs := DoBatch(f, []Query{q})
	if rs[0].Err != nil {
		t.Fatal(rs[0].Err)
	}
	e := rs[0].Top[0]
	if e.S != 1 || e.Prev != 2 || e.Cur != 9 || e.Delta != 7 {
		t.Fatalf("in-delta = %+v, want prev=2 cur=9 delta=7", e)
	}
}

// TestDeltaEdge: per-edge deltas, ranked, K-truncated.
func TestDeltaEdge(t *testing.T) {
	f := newFakeProber(2)
	seedFake(f)
	// Edge 1→2: base [0,15]=3, compare [16,100]=4 → delta 1.
	// Edge 2→3: base 0, compare 7 → delta 7.
	// Edge 1→3: base 0, compare 5 → delta 5.
	q := NewDeltaEdge([][2]uint64{{1, 2}, {2, 3}, {1, 3}}, 0, 15, 16, 100)
	q.K = 2
	rs := DoBatch(f, []Query{q})
	if rs[0].Err != nil {
		t.Fatal(rs[0].Err)
	}
	top := rs[0].Top
	if len(top) != 2 {
		t.Fatalf("K=2 returned %d entries", len(top))
	}
	if top[0].S != 2 || top[0].D != 3 || top[0].Delta != 7 {
		t.Fatalf("rank 0 = %+v, want 2→3 delta 7", top[0])
	}
	if top[1].S != 1 || top[1].D != 3 || top[1].Delta != 5 {
		t.Fatalf("rank 1 = %+v, want 1→3 delta 5", top[1])
	}
}

// TestDeltaSharesBatchVisit: delta probes ride the same one-visit-per-shard
// plan as every other kind — adding deltas to a batch must not add visits.
func TestDeltaSharesBatchVisit(t *testing.T) {
	f := newFakeProber(4)
	seedFake(f)
	f.resetCounts()
	rs := DoBatch(f, []Query{
		NewEdge(1, 2, 0, 100),
		NewDeltaVertex([]uint64{1, 2, 3, 4, 5}, 0, 35, 36, 100),
		NewDeltaEdge([][2]uint64{{1, 2}, {2, 3}}, 0, 35, 36, 100),
		NewVertexIn(1, 0, 100),
	})
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
	if f.calls > f.shards {
		t.Fatalf("batch with deltas made %d ProbeShard calls across %d shards", f.calls, f.shards)
	}
}

// fakeAnalytics is a canned Analytics backend for the sketch-served kinds.
type fakeAnalytics struct {
	hh     []Entry
	bursts []Entry
	gotDir string
	gotK   int
}

func (f *fakeAnalytics) HeavyHitters(dir string, k int) []Entry {
	f.gotDir, f.gotK = dir, k
	if k < len(f.hh) {
		return f.hh[:k]
	}
	return f.hh
}

func (f *fakeAnalytics) Bursts(k int) []Entry {
	f.gotK = k
	if k < len(f.bursts) {
		return f.bursts[:k]
	}
	return f.bursts
}

// TestSketchKinds: heavy_hitters and burst are answered by the Analytics
// backend without touching a shard; without a backend they fail with the
// analytics_disabled code.
func TestSketchKinds(t *testing.T) {
	f := newFakeProber(2)
	seedFake(f)
	a := &fakeAnalytics{
		hh:     []Entry{{S: 9, Cur: 100}, {S: 8, Cur: 50}},
		bursts: []Entry{{S: 7, Score: 5.5, Burst: true}},
	}
	f.resetCounts()
	rs := DoBatchWith(f, a, []Query{NewHeavyHitters(DirIn, 2), NewBurst(0)})
	if f.calls != 0 {
		t.Fatalf("sketch-served batch made %d ProbeShard calls, want 0", f.calls)
	}
	if rs[0].Err != nil || len(rs[0].Top) != 2 || rs[0].Top[0].S != 9 {
		t.Fatalf("heavy hitters = %+v", rs[0])
	}
	if a.gotDir != DirIn {
		t.Fatalf("dir %q not forwarded", a.gotDir)
	}
	if rs[1].Err != nil || len(rs[1].Top) != 1 || !rs[1].Top[0].Burst {
		t.Fatalf("bursts = %+v", rs[1])
	}
	if a.gotK != DefaultTopK {
		t.Fatalf("K=0 forwarded as %d, want default %d", a.gotK, DefaultTopK)
	}

	// No backend: stable analytics_disabled code, neighbors untouched.
	rs = DoBatchWith(f, nil, []Query{NewEdge(1, 2, 0, 100), NewHeavyHitters("", 5), NewBurst(5)})
	if rs[0].Err != nil || rs[0].Weight != 7 {
		t.Fatalf("scalar neighbor polluted: %+v", rs[0])
	}
	for _, i := range []int{1, 2} {
		if got := ErrCode(rs[i].Err); got != CodeAnalyticsDisabled {
			t.Fatalf("result %d: code = %q (err %v), want %q", i, got, rs[i].Err, CodeAnalyticsDisabled)
		}
		if !strings.Contains(rs[i].Err.Error(), "-analytics") {
			t.Fatalf("result %d: error %v should point at the -analytics flag", i, rs[i].Err)
		}
	}
}

// TestRankByDelta: ties rank deterministically (vertex ascending) and |·|
// ranks falls as high as rises.
func TestRankByDelta(t *testing.T) {
	entries := []Entry{
		{S: 5, Delta: 3},
		{S: 1, Delta: -10},
		{S: 3, Delta: 3},
		{S: 2, Delta: 10},
	}
	got := rankByDelta(entries, 10)
	order := []uint64{1, 2, 3, 5} // |−10| ties |10|: vertex 1 before 2; |3| ties: 3 before 5
	for i, v := range order {
		if got[i].S != v {
			t.Fatalf("rank %d = vertex %d, want %d (full: %+v)", i, got[i].S, v, got)
		}
	}
}
