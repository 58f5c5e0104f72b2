package higgs_test

import (
	"strings"
	"testing"

	"higgs"
)

// TestWindowFacade: the Window-based constructors and their options build
// the wire queries they promise.
func TestWindowFacade(t *testing.T) {
	w := higgs.Between(0, 500)
	// The scalar vertex kinds carry direction in the kind, not in Dir.
	for _, c := range []struct {
		name string
		q    higgs.Query
		kind higgs.QueryKind
	}{
		{"vertex default", higgs.NewVertexQuery(1, w), higgs.QueryVertexOut},
		{"vertex out explicit", higgs.NewVertexQuery(1, w, higgs.WithDirection(higgs.DirOut)), higgs.QueryVertexOut},
		{"vertex in", higgs.NewVertexQuery(1, w, higgs.WithDirection(higgs.DirIn)), higgs.QueryVertexIn},
	} {
		if c.q.Kind != c.kind || c.q.Dir != "" || c.q.Ts != 0 || c.q.Te != 500 {
			t.Errorf("%s: built %+v, want kind %v over [0, 500] with no Dir", c.name, c.q, c.kind)
		}
	}

	dq := higgs.NewDeltaVertexQuery([]uint64{1, 2}, higgs.Between(0, 10), higgs.Between(11, 20),
		higgs.WithTopK(5), higgs.WithDirection(higgs.DirIn))
	if dq.Kind != higgs.QueryDeltaVertex || dq.Ts != 0 || dq.Te != 10 || dq.Ts2 != 11 || dq.Te2 != 20 ||
		dq.K != 5 || dq.Dir != higgs.DirIn || len(dq.Candidates) != 2 {
		t.Errorf("delta vertex query misbuilt: %+v", dq)
	}
	hq := higgs.NewHeavyHittersQuery(higgs.WithDirection(higgs.DirIn), higgs.WithTopK(3))
	if hq.Kind != higgs.QueryHeavyHitters || hq.Dir != higgs.DirIn || hq.K != 3 {
		t.Errorf("heavy hitters query misbuilt: %+v", hq)
	}
	bq := higgs.NewBurstQuery(higgs.WithTopK(7))
	if bq.Kind != higgs.QueryBurst || bq.K != 7 {
		t.Errorf("burst query misbuilt: %+v", bq)
	}
	cq := higgs.NewDeltaVertexQuery(nil, higgs.Between(0, 10), higgs.Between(11, 20),
		higgs.WithCandidates([]uint64{9}))
	if len(cq.Candidates) != 1 || cq.Candidates[0] != 9 {
		t.Errorf("WithCandidates not applied: %+v", cq)
	}
}

// TestZeroWindowRejected: the zero Window is invalid by design — a query
// that never set its window fails with a distinct error instead of
// silently answering the weight at instant 0.
func TestZeroWindowRejected(t *testing.T) {
	s := newSeededSharded(t, 2)
	var zero higgs.Window
	r := s.Do(higgs.NewEdgeQuery(1, 2, zero))
	if r.Err == nil || !strings.Contains(r.Err.Error(), "zero-value window") {
		t.Fatalf("zero window not rejected distinctly: %+v", r)
	}
	// A genuine single-instant window elsewhere on the axis stays valid.
	if r := s.Do(higgs.NewEdgeQuery(1, 2, higgs.Between(100, 100))); r.Err != nil {
		t.Fatalf("single-instant window rejected: %v", r.Err)
	}
}

// TestAnalyticsFacade: the library-level analytics wiring — NewAnalytics,
// SetApplyObserver, DoBatchWith — answers heavy-hitter, burst, and delta
// queries without higgsd.
func TestAnalyticsFacade(t *testing.T) {
	cfg := higgs.DefaultShardedConfig()
	cfg.Shards = 2
	s, err := higgs.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	eng, err := higgs.NewAnalytics(higgs.AnalyticsConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.SetApplyObserver(eng)

	var tick int64
	for v := uint64(0); v < 50; v++ {
		s.Insert(higgs.Edge{S: v, D: v + 1, W: 1, T: tick})
		tick++
	}
	s.Insert(higgs.Edge{S: 1000, D: 1, W: 900, T: tick})

	rs := higgs.DoBatchWith(s, eng, []higgs.Query{
		higgs.NewHeavyHittersQuery(higgs.WithTopK(1)),
		higgs.NewBurstQuery(),
		higgs.NewDeltaVertexQuery([]uint64{1000}, higgs.Between(0, tick-1), higgs.Between(tick, tick+10)),
	})
	if rs[0].Err != nil || len(rs[0].Top) != 1 || rs[0].Top[0].S != 1000 {
		t.Fatalf("heavy hitters through the facade = %+v", rs[0])
	}
	if rs[1].Err != nil {
		t.Fatalf("burst through the facade: %v", rs[1].Err)
	}
	if rs[2].Err != nil || len(rs[2].Top) != 1 || rs[2].Top[0].Delta != 900 {
		t.Fatalf("delta through the facade = %+v", rs[2])
	}

	// Without an engine heavy hitters and bursts fail per item with a stable code.
	rs = higgs.DoBatchWith(s, nil, []higgs.Query{higgs.NewHeavyHittersQuery()})
	if rs[0].Err == nil || !strings.Contains(rs[0].Err.Error(), "analytics") {
		t.Fatalf("nil-engine heavy-hitters query = %+v", rs[0])
	}
}
