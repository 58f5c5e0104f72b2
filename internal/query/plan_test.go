package query

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// benchBatch is 16 weight-only items in the load generator's batch shape —
// 10 edge, 3 vertex_out, 1 vertex_in, 1 path, 1 subgraph — over seedFake's
// vertices.
func benchBatch() []Query {
	qs := make([]Query, 16)
	for i := range qs {
		s, d := uint64(i%7+1), uint64(i%5+2)
		switch i {
		default:
			qs[i] = NewEdge(s, d, 0, 100)
		case 10, 11, 12:
			qs[i] = NewVertexOut(s, 0, 100)
		case 13:
			qs[i] = NewVertexIn(d, 0, 100)
		case 14:
			qs[i] = NewPath([]uint64{s, d, s + 1, d + 1}, 0, 100)
		case 15:
			qs[i] = NewSubgraph([][2]uint64{{s, d}, {d, s}, {s + 1, d}}, 0, 100)
		}
	}
	return qs
}

// TestDoBatchAllocs pins what the planner allocates for a batch of scalar
// kinds at one P: the result slice and nothing else — the plan is pooled
// and every touched shard's group runs on the caller's goroutine.
// testing.AllocsPerRun sets GOMAXPROCS to 1. The pin is the cheapest of
// many single runs: a pool may drop what it is given (under -race a
// quarter of all Puts).
func TestDoBatchAllocs(t *testing.T) {
	f := newFakeProber(4)
	seedFake(f)
	qs := benchBatch()
	var res []Result
	batch := func() { res = DoBatch(f, qs) }
	least := testing.AllocsPerRun(1, batch)
	for i := 0; i < 100; i++ {
		least = min(least, testing.AllocsPerRun(1, batch))
	}
	if least != 1 {
		t.Fatalf("a 16-item batch over 4 shards allocated %v times at best, want 1 (the result slice)", least)
	}
	if len(f.perShard) != f.shards {
		t.Fatalf("the batch touched %d of %d shards; the pin must cover more than the one-shard case", len(f.perShard), f.shards)
	}
	for i, r := range res {
		if want := Do(f, qs[i]); r.Weight != want.Weight || r.Err != nil || want.Err != nil {
			t.Fatalf("item %d: batch %+v, alone %+v", i, r, want)
		}
	}
}

// probeOne asks p for one probe's estimate in a call of its own.
func probeOne(p Prober, i int, pr Probe) int64 {
	var out [1]int64
	p.ProbeShard(i, []Probe{pr}, out[:])
	return out[0]
}

// referenceDo answers qs without the planner: every probe is its own
// ProbeShard call, and each kind's merge is written out again.
// heavy_hitters and burst have no engine to ask.
func referenceDo(p Prober, qs []Query) []Result {
	edge := func(s, d uint64, ts, te int64) int64 {
		return probeOne(p, p.ShardFor(s), Probe{Op: OpEdge, S: s, D: d, Ts: ts, Te: te})
	}
	vout := func(v uint64, ts, te int64) int64 {
		return probeOne(p, p.ShardFor(v), Probe{Op: OpVertexOut, S: v, Ts: ts, Te: te})
	}
	vin := func(v uint64, ts, te int64) int64 {
		var sum int64
		for i := 0; i < p.NumShards(); i++ {
			sum += probeOne(p, i, Probe{Op: OpVertexIn, S: v, Ts: ts, Te: te})
		}
		return sum
	}
	res := make([]Result, len(qs))
	for qi, q := range qs {
		if err := q.Validate(); err != nil {
			res[qi].Err = err
			continue
		}
		r := &res[qi]
		switch q.Kind {
		case KindEdge:
			r.Weight = edge(q.S, q.D, q.Ts, q.Te)
		case KindVertexOut:
			r.Weight = vout(q.V, q.Ts, q.Te)
		case KindVertexIn:
			r.Weight = vin(q.V, q.Ts, q.Te)
		case KindPath:
			for i := 0; i+1 < len(q.Path); i++ {
				r.Weight += edge(q.Path[i], q.Path[i+1], q.Ts, q.Te)
			}
		case KindSubgraph:
			for _, e := range q.Edges {
				r.Weight += edge(e[0], e[1], q.Ts, q.Te)
			}
		case KindDeltaVertex:
			w := vout
			if q.Dir == DirIn {
				w = vin
			}
			var entries []Entry
			for _, v := range q.Candidates {
				prev, cur := w(v, q.Ts, q.Te), w(v, q.Ts2, q.Te2)
				entries = append(entries, Entry{S: v, Prev: prev, Cur: cur, Delta: cur - prev})
			}
			r.Top = rankByDelta(entries, q.K)
		case KindDeltaEdge:
			var entries []Entry
			for _, e := range q.Edges {
				prev, cur := edge(e[0], e[1], q.Ts, q.Te), edge(e[0], e[1], q.Ts2, q.Te2)
				entries = append(entries, Entry{S: e[0], D: e[1], Prev: prev, Cur: cur, Delta: cur - prev})
			}
			r.Top = rankByDelta(entries, q.K)
		case KindHeavyHitters, KindBurst:
			r.Err = errf(CodeAnalyticsDisabled, "no engine")
		}
	}
	return res
}

// seedWide fills the store with a few hundred edges over 23 sources and 19
// destinations, so every shard count below holds something in each shard.
func seedWide(f *fakeProber) {
	for i := 0; i < 400; i++ {
		f.insert(fakeEdge{s: uint64(i*7%23 + 1), d: uint64(i*11%19 + 1), w: int64(i%5 + 1), t: int64(i%97 + 1)})
	}
}

// TestPlanReuse runs a sequence of batches through one plan — the shard
// count moving 8 → 2 → 4 → 8, valid and invalid items mixed, every kind,
// one batch past the pooling cap — and holds every answer to referenceDo.
// A plan that kept a list from an earlier batch, or a shard count's worth
// of lists too few, answers some query wrong here.
func TestPlanReuse(t *testing.T) {
	mixed := func(base uint64) []Query {
		din := NewDeltaVertex([]uint64{base, base + 1, base + 2, 5}, 1, 40, 41, 97)
		din.Dir = DirIn
		dout := NewDeltaVertex([]uint64{base + 3, 1, 2, 9}, 1, 50, 51, 97)
		dout.K = 2
		return []Query{
			NewEdge(base, base+1, 0, 100),
			NewEdge(1, 2, 50, 10), // inverted
			NewVertexOut(base, 1, 60),
			NewVertexIn(base+2, 1, 97),
			NewPath([]uint64{base, base + 4, base + 8, 3}, 1, 97),
			NewPath([]uint64{base}, 1, 97), // one vertex
			NewSubgraph([][2]uint64{{base, 2}, {3, base}, {8, 11}}, 5, 90),
			NewSubgraph(nil, 1, 97), // empty
			din,
			dout,
			NewDeltaEdge([][2]uint64{{base, base + 1}, {8, 12}, {15, 3}}, 1, 30, 31, 97),
			NewHeavyHitters(DirIn, 3),
			NewBurst(0),
			{Ts: 1, Te: 9},                // no kind
			NewEdge(base+1, base+2, 0, 0), // zero window
		}
	}
	big := make([][2]uint64, maxPooledProbes+100)
	for i := range big {
		big[i] = [2]uint64{uint64(i%23 + 1), uint64(i%19 + 1)}
	}
	steps := []struct {
		shards int
		qs     []Query
	}{
		{8, mixed(1)},
		{8, mixed(4)},
		{2, mixed(2)},
		{4, mixed(3)},
		{4, append(mixed(5), NewSubgraph(big, 1, 97))},
		{4, mixed(6)},
		{8, mixed(7)},
		{2, nil},
		{8, mixed(8)[:4]},
	}
	pl := new(plan)
	for si, st := range steps {
		f := newFakeProber(st.shards)
		seedWide(f)
		got := pl.do(f, nil, st.qs)
		for i, c := range f.perShard {
			if c > 1 {
				t.Fatalf("step %d: shard %d visited %d times", si, i, c)
			}
		}
		want := referenceDo(f, st.qs)
		if len(got) != len(want) {
			t.Fatalf("step %d: %d results for %d queries", si, len(got), len(st.qs))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Weight != w.Weight || ErrCode(g.Err) != ErrCode(w.Err) || !slices.Equal(g.Top, w.Top) {
				t.Fatalf("step %d (%d shards), item %d (%v): planned %+v, reference %+v", si, st.shards, i, st.qs[i].Kind, g, w)
			}
		}
		if si == 4 {
			if len(pl.vals) <= maxPooledProbes {
				t.Fatalf("step %d planned %d probes, not past the pooling cap %d", si, len(pl.vals), maxPooledProbes)
			}
			if pooled(pl) {
				t.Fatalf("step %d: a plan of %d probes went back to the pool", si, len(pl.vals))
			}
		}
	}
}

// pooled reports whether putPlan(pl) leaves pl for a later Get. A pool may
// drop what it is given (under -race a quarter of all Puts) but never hands
// out what it was not given, so false is only meaningful against a control
// that comes back.
func pooled(pl *plan) bool {
	putPlan(pl)
	for i := 0; i < 4; i++ {
		if planPool.Get().(*plan) == pl {
			return true
		}
	}
	return false
}

// TestPutPlanDropsOversized holds putPlan to its cap when batches each
// under it pile onto a different shard, so the shards' probe lists together
// keep room for more than the cap (TestPlanReuse covers one batch over it).
// A plan of an ordinary batch must come back, or the pool checks prove
// nothing.
func TestPutPlanDropsOversized(t *testing.T) {
	f := newFakeProber(4)
	seedWide(f)
	onShard := func(k, n int) []Query {
		edges := make([][2]uint64, n)
		for i := range edges {
			edges[i] = [2]uint64{uint64(k + 4*(i%5+1)), uint64(i%19 + 1)}
		}
		return []Query{NewSubgraph(edges, 1, 97)}
	}

	back := false
	for i := 0; i < 100 && !back; i++ {
		ctl := new(plan)
		ctl.do(f, nil, benchBatch())
		back = pooled(ctl)
	}
	if !back {
		t.Fatal("a plan of one 16-item batch never came back from the pool")
	}

	spread := new(plan)
	per := maxPooledProbes/2 - 100
	for k := 0; k < f.shards; k++ {
		got := spread.do(f, nil, onShard(k, per))
		if want := referenceDo(f, onShard(k, per)); got[0].Weight != want[0].Weight {
			t.Fatalf("shard %d batch: planned %d, reference %d", k, got[0].Weight, want[0].Weight)
		}
	}
	if m := max(cap(spread.vals), cap(spread.spans)); m > maxPooledProbes {
		t.Fatalf("each batch was under the cap, yet vals or spans hold %d", m)
	}
	if pooled(spread) {
		t.Fatalf("a plan whose %d shards each hold %d probes went back to the pool", f.shards, per)
	}
}

// TestDoBatchConcurrent runs batches from several goroutines at once over
// backends of 2, 4 and 8 shards, so plans pass between callers through the
// pool with a different shard count each time. It runs once at the
// process's P count, where every batch fans out if there is more than one,
// and once at one P, where every batch runs inline, so a -race run covers
// both paths. Every answer must equal referenceDo's.
func TestDoBatchConcurrent(t *testing.T) {
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			doBatchConcurrent(t)
		})
	}
}

func doBatchConcurrent(t *testing.T) {
	type job struct {
		f    *fakeProber
		qs   []Query
		want []Result
	}
	var jobs []job
	for i, shards := range []int{2, 4, 8} {
		f := newFakeProber(shards)
		seedWide(f)
		qs := append(benchBatch(), NewVertexIn(uint64(i+3), 1, 97), NewSubgraph([][2]uint64{{1, 2}, {9, 4}, {17, 5}}, 1, 97))
		jobs = append(jobs, job{f, qs, referenceDo(f, qs)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 60; n++ {
				j := jobs[(g+n)%len(jobs)]
				for i, r := range DoBatch(j.f, j.qs) {
					if r.Weight != j.want[i].Weight || r.Err != nil {
						t.Errorf("goroutine %d batch %d (%d shards), item %d: %+v, reference %+v", g, n, j.f.shards, i, r, j.want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
