package query

import (
	"math"
	"reflect"
	"slices"
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
		// Fill sets the windows of heavy_hitters and burst — the zero window
		// must NOT reject them.
		{"heavy hitters no window", NewHeavyHitters("", 0), ""},
		{"heavy hitters bad dir", NewHeavyHitters("both", 5), CodeBadDirection},
		{"heavy hitters bad k", NewHeavyHitters(DirOut, -1), CodeBadTopK},
		{"heavy hitters too many candidates",
			Query{Kind: KindHeavyHitters, Candidates: make([]uint64, MaxCandidates+1)}, CodeTooManyCandidates},
		{"valid burst", NewBurst(0), ""},
		{"burst bad k", NewBurst(MaxTopK + 1), CodeBadTopK},
		{"burst inverted", Query{Kind: KindBurst, Ts: 0, Te: 59, Ts2: 79, Te2: 60}, CodeInvertedWindow},
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
		// heavy_hitters and burst plan what Fill gives them: nothing before.
		{NewHeavyHitters(DirOut, 10), 8, 0},
		{NewBurst(10), 8, 0},
		{Query{Kind: KindHeavyHitters, Candidates: cands, Ts: math.MinInt64, Te: math.MaxInt64}, 8, 3},
		{Query{Kind: KindHeavyHitters, Dir: DirIn, Candidates: cands, Ts: math.MinInt64, Te: math.MaxInt64}, 8, 24},
		{Query{Kind: KindBurst, Candidates: cands, Ts: 0, Te: 59, Ts2: 60, Te2: 79}, 8, 6},
		// burst ranks out-weight whatever its Dir: no fan-out.
		{Query{Kind: KindBurst, Dir: DirIn, Candidates: cands, Ts: 0, Te: 59, Ts2: 60, Te2: 79}, 8, 6},
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

// fakeAnalytics is a canned Analytics backend: fixed candidate lists and
// burst geometry.
type fakeAnalytics struct {
	out, in, cur []uint64
	burst        Burst
	calls        int
}

func (f *fakeAnalytics) Candidates(k Kind, dir string, max int) []uint64 {
	f.calls++
	c := f.out
	switch {
	case k == KindBurst:
		c = f.cur
	case dir == DirIn:
		c = f.in
	}
	return c[:min(len(c), max)]
}

func (f *fakeAnalytics) Burst() Burst { return f.burst }

// TestSketchKinds: heavy_hitters and burst are probes of the backend's
// candidates — each weight equals a direct vertex query over the same
// window, the batch still visits each shard once, and ProbeCount of the
// filled item is what it plans. Without a backend they fail with the
// analytics_disabled code.
func TestSketchKinds(t *testing.T) {
	f := newFakeProber(2)
	seedFake(f)
	// Out-weights: 1:12 2:7 3:2 4:9 5:1; in-weights: 1:11 2:8 3:12. Epochs
	// of 20: the current one is [60, 79], the baseline [0, 59] spans three.
	a := &fakeAnalytics{
		out:   []uint64{1, 2, 3, 4, 5, 9}, // 9 carries nothing: not ranked
		in:    []uint64{1, 2, 3},
		cur:   []uint64{4, 5, 1},
		burst: Burst{Ts: 0, Te: 59, Ts2: 60, Te2: 79, Factor: 4, Min: 5},
	}
	qs := []Query{NewHeavyHitters(DirOut, 3), NewHeavyHitters(DirIn, 2), NewBurst(0)}
	f.resetCounts()
	rs := DoBatchWith(f, a, qs)
	if f.calls > f.shards {
		t.Fatalf("analytics batch made %d ProbeShard calls across %d shards", f.calls, f.shards)
	}
	if qs[0].Candidates != nil || qs[2].Ts2 != 0 {
		t.Fatalf("the planner filled the caller's items: %+v", qs)
	}
	want := [][]Entry{
		{{S: 1, Cur: 12}, {S: 4, Cur: 9}, {S: 2, Cur: 7}},
		{{S: 3, Cur: 12}, {S: 1, Cur: 11}},
		// Prev: the baseline sum over its three epochs, floored at 1.
		{{S: 4, Cur: 9, Prev: 1, Score: 9, Burst: true}, {S: 5, Cur: 1, Prev: 1, Score: 1}, {S: 1, Prev: 4}},
	}
	for i, w := range want {
		if rs[i].Err != nil || !slices.Equal(rs[i].Top, w) {
			t.Fatalf("%v = %+v (err %v), want %+v", qs[i].Kind, rs[i].Top, rs[i].Err, w)
		}
	}
	for i, q := range qs {
		Fill(&q, a)
		planned := 0
		for _, e := range rs[i].Top {
			direct := NewVertexOut(e.S, q.Ts2, q.Te2)
			switch {
			case q.Kind == KindHeavyHitters && q.Dir == DirIn:
				direct = NewVertexIn(e.S, q.Ts, q.Te)
			case q.Kind == KindHeavyHitters:
				direct = NewVertexOut(e.S, q.Ts, q.Te)
			}
			if r := Do(f, direct); r.Weight != e.Cur {
				t.Errorf("%v: vertex %d Cur %d, a direct %v reads %d", q.Kind, e.S, e.Cur, direct.Kind, r.Weight)
			}
		}
		pl := new(plan)
		pl.do(f, a, []Query{q})
		for _, g := range pl.probes {
			planned += len(g)
		}
		if n := q.ProbeCount(f.shards); n != planned {
			t.Errorf("%v: ProbeCount = %d, the planner planned %d", q.Kind, n, planned)
		}
		again := q
		Fill(&again, a)
		if !reflect.DeepEqual(again, q) {
			t.Errorf("%v: a second Fill changed the item: %+v → %+v", q.Kind, q, again)
		}
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

// TestFillDeltaCandidates: a delta_vertex item without candidates gets the
// backend's, capped at DefaultCandidates; one with its own keeps them.
func TestFillDeltaCandidates(t *testing.T) {
	a := &fakeAnalytics{out: make([]uint64, DefaultCandidates+5)}
	q := NewDeltaVertex(nil, 0, 10, 11, 20)
	Fill(&q, a)
	if len(q.Candidates) != DefaultCandidates {
		t.Fatalf("filled %d candidates, want %d", len(q.Candidates), DefaultCandidates)
	}
	q = NewDeltaVertex([]uint64{7}, 0, 10, 11, 20)
	Fill(&q, a)
	if !slices.Equal(q.Candidates, []uint64{7}) {
		t.Fatalf("own candidates replaced: %v", q.Candidates)
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
