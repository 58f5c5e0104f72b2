package bench

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"time"

	"higgs/internal/analytics"
	"higgs/internal/exact"
	"higgs/internal/ingest"
	"higgs/internal/metrics"
	"higgs/internal/query"
	"higgs/internal/rcache"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

// Planted-vertex id bases, far above any preset's natural id range so the
// planted signals never collide with dataset vertices.
const (
	anaOutHeavyBase uint64 = 1 << 40 // planted out-direction heavy hitters
	anaInHeavyBase  uint64 = 1 << 41 // planted in-direction heavy hitters
	anaBurstVertex  uint64 = 1 << 42 // planted burst: all weight in the final epoch
	anaOutSinkBase  uint64 = 1 << 43 // throwaway destinations of out-heavy edges
	anaInSourceBase uint64 = 1 << 44 // throwaway sources of in-heavy edges
	anaRiser        uint64 = 1 << 45 // delta candidates: rises, falls, holds
	anaFaller       uint64 = 1<<45 + 1
	anaNeutral      uint64 = 1<<45 + 2
	anaDeltaSink    uint64 = 1 << 46 // destinations of the delta candidates' edges
)

// anaHeavies is the planted heavy-hitter count per direction; the gate
// compares exactly this top-k against exact ground truth.
const anaHeavies = 4

// anaSpread is how many edges each planted heavy is split across, spaced
// evenly over the span so heavies are steady (active in every epoch) and
// must NOT raise burst flags.
const anaSpread = 8

// anaBatch is the submit batch size through the async ingest pipeline.
const anaBatch = 256

// anaCacheBudget comfortably fits the delta probe working set.
const anaCacheBudget int64 = 4 << 20

// analyticsGate is the stream-analytics gate (internal/analytics,
// DESIGN.md §17). The dataset is spiked with planted
// signals — dominant out/in heavy hitters spread across the span, a vertex
// whose entire weight lands in the final burst epoch, and delta candidates
// that rise, fall, and hold across two windows — then ingested through the
// async group-commit pipeline with a retention expire interleaved between
// slabs, so the candidate sets are maintained by the real committer apply
// path while leaves are reclaimed underneath them. Five contracts
// hard-fail the run rather than warn:
//
//   - heavy hitters: the top-k by out-weight and by in-weight (summed
//     across shards) must equal, in order, the top-k over the retained
//     range [expireCut, last] computed from an exact.Store fed the same
//     edges; each Cur must equal a direct summary probe, and each planted
//     heavy's Cur must fall below its lifetime exact weight, because the
//     expire reclaimed its first edge.
//   - one-sidedness: no heavy-hitter or delta estimate may undercount its
//     exact ground truth — the summary's estimates are one-sided, and
//     expire/interleaving must not break that.
//   - burst detection: the planted final-epoch vertex must come back
//     flagged (and its exact per-epoch weights must genuinely clear the
//     threshold, so the check cannot pass vacuously), while the planted
//     steady heavies must not be flagged.
//   - delta ranking: the delta_vertex and delta_edge answers must rank the
//     candidates exactly as the exact two-window differences do, with
//     matching signs, and their Prev/Cur/Delta must equal direct summary
//     probes of the same windows (the engine adds no estimator of its own).
//   - cache transparency: the same batch through a watermark-fenced read
//     cache — cold and warm — must be identical to the uncached answers.
//
// The observer invariant is asserted globally: after the final flush the
// engine must have seen exactly every ingested edge and unit of weight
// through the apply path. All gated metrics are deterministic detection
// flags; ingest throughput is recorded in the artifact but not gated.
var analyticsGate = gate{
	id:      "analytics",
	title:   "Extra: stream analytics — heavy hitters, bursts, deltas vs exact (internal/analytics)",
	columns: []string{"ingest", "heavy hitters", "burst", "delta", "cache", "verify"},
	shards:  shardCounts,
	row:     analyticsRow,
}

// anaPlan lays the run's time geometry and planted edges over a dataset.
type anaPlan struct {
	first, last int64
	epochLen    int64 // burst epoch length; the span covers ~6 epochs
	// expireCut is the retention cutoff, the span's midpoint. The expire
	// runs once every edge before it is in, and nothing after: then every
	// closed subtree lies wholly before the cutoff and goes, and no sealed
	// aggregate straddles it, so the weight before it leaves every answer.
	expireCut int64
	// Delta windows, both at or after the expire cutoff so expired leaves
	// can never make the summary's window estimates undershoot the exact
	// store (which keeps everything).
	baseLo, baseHi, cmpLo, cmpHi int64
	planted                      stream.Stream
	datasetW                     int64 // total dataset weight (planted weights scale off it)
}

// anaPlanFor derives the plan: epoch geometry from the dataset's span, and
// planted weights from its total weight so every planted signal dominates
// the natural stream at any scale.
func anaPlanFor(ds *Dataset) (anaPlan, error) {
	var pl anaPlan
	span := ds.Stats.Span()
	if span < 64 {
		return pl, fmt.Errorf("dataset %s spans %d time units; too short to place epochs and windows", ds.Name, span)
	}
	pl.first, pl.last = ds.Stats.FirstT, ds.Stats.LastT
	pl.epochLen = span/6 + 1
	pl.expireCut = pl.first + span/2
	pl.baseLo = pl.expireCut
	pl.baseHi = pl.first + 3*span/4
	pl.cmpLo, pl.cmpHi = pl.baseHi+1, pl.last
	for _, e := range ds.Stream {
		pl.datasetW += e.W
	}

	// Heavy hitters: per direction, anaHeavies vertices whose totals all
	// exceed the whole dataset's weight, spaced by a step far above any
	// possible collision noise so even the answer's ORDER must match exact.
	// Each is split into anaSpread evenly-spaced edges (steady, not bursty),
	// the first at the span's first instant, before the expire cutoff;
	// out-heavy destinations and in-heavy sources are distinct throwaways so
	// each heavy moves exactly one direction's ground truth, and the varied
	// in-heavy sources spread across shards to exercise the cross-shard
	// in-weight sum.
	floor := pl.datasetW + 100_000
	step := floor/16 + 1
	spread := func(target int64, k int) (w, t int64) {
		w = target / anaSpread
		if k == 0 {
			w += target % anaSpread
		}
		return w, pl.first + int64(k)*span/anaSpread
	}
	for i := 0; i < anaHeavies; i++ {
		target := floor + int64(anaHeavies-i)*step
		for k := 0; k < anaSpread; k++ {
			w, t := spread(target, k)
			pl.planted = append(pl.planted,
				stream.Edge{S: anaOutHeavyBase + uint64(i), D: anaOutSinkBase + uint64(i*anaSpread+k), W: w, T: t},
				stream.Edge{S: anaInSourceBase + uint64(i*anaSpread+k), D: anaInHeavyBase + uint64(i), W: w, T: t})
		}
	}

	// Burst: the planted vertex's entire weight lands at the last instant —
	// current-epoch weight ≈ datasetW over a zero baseline, a score no
	// natural vertex can reach (a score is bounded by the vertex's own
	// epoch weight, which is bounded by the dataset's total).
	burstTotal := pl.datasetW + 1000
	for k := 0; k < anaSpread; k++ {
		w := burstTotal / anaSpread
		if k == 0 {
			w += burstTotal % anaSpread
		}
		pl.planted = append(pl.planted, stream.Edge{S: anaBurstVertex, D: anaBurstVertex + 1, W: w, T: pl.last})
	}

	// Delta candidates: a riser (light base window, heavy compare window),
	// a faller (the reverse, smaller magnitude), and a neutral holder.
	// Margins are thousands of units apart so the summary's one-sided
	// estimation noise cannot reorder them.
	cmpSpan := pl.cmpHi - pl.cmpLo
	pl.planted = append(pl.planted,
		stream.Edge{S: anaRiser, D: anaDeltaSink, W: 10, T: pl.baseLo + 1})
	for j := int64(0); j < 5; j++ {
		pl.planted = append(pl.planted,
			stream.Edge{S: anaRiser, D: anaDeltaSink, W: 10_000, T: pl.cmpLo + j*cmpSpan/5})
	}
	pl.planted = append(pl.planted,
		stream.Edge{S: anaFaller, D: anaDeltaSink + 1, W: 10_000, T: pl.baseLo + 2},
		stream.Edge{S: anaFaller, D: anaDeltaSink + 1, W: 10_000, T: pl.baseHi - 1},
		stream.Edge{S: anaFaller, D: anaDeltaSink + 1, W: 10, T: pl.cmpLo + 1},
		stream.Edge{S: anaNeutral, D: anaDeltaSink + 2, W: 100, T: pl.baseLo + 3},
		stream.Edge{S: anaNeutral, D: anaDeltaSink + 2, W: 100, T: pl.cmpLo + 2})
	return pl, nil
}

// anaExactTop ranks candidate vertices by exact weight (descending, ties
// by id — the engine's own tie rule) and returns the top-k ids.
func anaExactTop(vs []uint64, weight func(uint64) int64, k int) []uint64 {
	sort.Slice(vs, func(i, j int) bool {
		wi, wj := weight(vs[i]), weight(vs[j])
		if wi != wj {
			return wi > wj
		}
		return vs[i] < vs[j]
	})
	if len(vs) > k {
		vs = vs[:k]
	}
	return vs
}

func anaSign(x int64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// analyticsRow measures and verifies one (dataset, shard count) row.
func analyticsRow(c *gateCase) ([]string, error) {
	ds, n, cfg := c.ds, c.n, c.shardConfig()
	pl, err := anaPlanFor(ds)
	if err != nil {
		return nil, err
	}
	s, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	eng, err := analytics.New(analytics.Config{Shards: n, EpochSeconds: pl.epochLen})
	if err != nil {
		return nil, err
	}
	// Registered before the first edge, exactly as higgsd does before WAL
	// replay: the committer apply path is the only writer the engine sees.
	s.SetApplyObserver(eng)

	// The combined stream, time-ordered, split into three slabs at the
	// expire cutoff and around the delta windows; an exact.Store absorbs the
	// same edges as ground truth.
	combined := make(stream.Stream, 0, len(ds.Stream)+len(pl.planted))
	combined = append(combined, ds.Stream...)
	combined = append(combined, pl.planted...)
	sort.SliceStable(combined, func(i, j int) bool { return combined[i].T < combined[j].T })
	ex := exact.New()
	var totalW int64
	for _, e := range combined {
		ex.Insert(e)
		totalW += e.W
	}
	slabEnd := func(hi int64) int {
		return sort.Search(len(combined), func(i int) bool { return combined[i].T > hi })
	}
	slabs := []struct {
		name string
		lo   int
		hi   int
	}{
		{"pre-cutoff", 0, slabEnd(pl.expireCut - 1)},
		{"base-window", slabEnd(pl.expireCut - 1), slabEnd(pl.baseHi)},
		{"compare-window", slabEnd(pl.baseHi), len(combined)},
	}

	// Ingest through the async group-commit pipeline, flushing at every
	// slab boundary, with the retention expire interleaved after the first
	// slab — the answers must follow leaves being reclaimed under them.
	p, err := ingest.New(s, ingest.Config{CommitInterval: 200 * time.Microsecond})
	if err != nil {
		return nil, err
	}
	defer p.Close() // idempotent; covers error returns
	start := time.Now()
	for si, slab := range slabs {
		for lo := slab.lo; lo < slab.hi; lo += anaBatch {
			hi := lo + anaBatch
			if hi > slab.hi {
				hi = slab.hi
			}
			if err := submitRetry(p, combined[lo:hi]); err != nil {
				return nil, fmt.Errorf("%s: %w", slab.name, err)
			}
		}
		p.Flush()
		if si == 0 {
			if dropped := s.ExpireAt(pl.expireCut, 0); dropped <= 0 {
				return nil, fmt.Errorf("expire at %d dropped %d leaves; the interleave never bites", pl.expireCut, dropped)
			}
		}
	}
	ingestEPS := metrics.Throughput(int64(len(combined)), time.Since(start))
	p.Close()

	// Observer invariant: the apply path showed the engine every edge and
	// every unit of weight exactly once.
	st := eng.Stats()
	if st.Edges != int64(len(combined)) || st.Weight != totalW {
		return nil, fmt.Errorf("engine absorbed %d edges / %d weight through the apply path, want %d / %d",
			st.Edges, st.Weight, len(combined), totalW)
	}

	// One mixed batch through the real executor seam: both heavy-hitter
	// directions, bursts, and both delta kinds.
	deltaCands := []uint64{anaRiser, anaFaller, anaNeutral}
	deltaEdges := [][2]uint64{{anaRiser, anaDeltaSink}, {anaFaller, anaDeltaSink + 1}}
	qs := []query.Query{
		query.NewHeavyHitters(query.DirOut, anaHeavies),
		query.NewHeavyHitters(query.DirIn, anaHeavies),
		query.NewBurst(query.MaxTopK),
		query.NewDeltaVertex(deltaCands, pl.baseLo, pl.baseHi, pl.cmpLo, pl.cmpHi),
		query.NewDeltaEdge(deltaEdges, pl.baseLo, pl.baseHi, pl.cmpLo, pl.cmpHi),
	}
	rs := query.DoBatchWith(s, eng, qs)
	for i, r := range rs {
		if r.Err != nil {
			return nil, fmt.Errorf("query %d (%v): %w", i, qs[i].Kind, r.Err)
		}
	}

	// Contract 1 — heavy hitters ≡ exact over the retained range, in order,
	// both directions; each weight a direct probe, and each planted heavy's
	// below its lifetime weight: the expire took its first edge.
	over := func(f func(uint64, int64, int64) int64, ts int64) func(uint64) int64 {
		return func(v uint64) int64 { return f(v, ts, pl.last) }
	}
	retained := func(f func(uint64, int64, int64) int64) func(uint64) int64 { return over(f, pl.expireCut) }
	wantOut := anaExactTop(ex.Vertices(), retained(ex.VertexOut), anaHeavies)
	dests := make(map[uint64]struct{})
	for _, e := range ex.Edges() {
		dests[e[1]] = struct{}{}
	}
	inVs := make([]uint64, 0, len(dests))
	for v := range dests {
		inVs = append(inVs, v)
	}
	wantIn := anaExactTop(inVs, retained(ex.VertexIn), anaHeavies)
	for _, c := range []struct {
		dir                      string
		got                      []query.Entry
		want                     []uint64
		exact, lifetime, direct  func(uint64) int64
		plantedLo, plantedBefore uint64
	}{
		{"out", rs[0].Top, wantOut, retained(ex.VertexOut), over(ex.VertexOut, pl.first), over(s.VertexOut, math.MinInt64),
			anaOutHeavyBase, anaOutHeavyBase + anaHeavies},
		{"in", rs[1].Top, wantIn, retained(ex.VertexIn), over(ex.VertexIn, pl.first), over(s.VertexIn, math.MinInt64),
			anaInHeavyBase, anaInHeavyBase + anaHeavies},
	} {
		if len(c.got) != len(c.want) {
			return nil, fmt.Errorf("%s heavy hitters returned %d entries, want %d", c.dir, len(c.got), len(c.want))
		}
		for i, e := range c.got {
			if e.S != c.want[i] {
				return nil, fmt.Errorf("%s heavy hitter rank %d = vertex %d, exact ground truth says %d",
					c.dir, i, e.S, c.want[i])
			}
			if truth := c.exact(e.S); e.Cur < truth {
				return nil, fmt.Errorf("%s heavy hitter %d estimate %d undercounts exact %d", c.dir, e.S, e.Cur, truth)
			}
			if d := c.direct(e.S); e.Cur != d {
				return nil, fmt.Errorf("%s heavy hitter %d weight %d diverges from a direct probe %d", c.dir, e.S, e.Cur, d)
			}
			if life := c.lifetime(e.S); e.S >= c.plantedLo && e.S < c.plantedBefore && e.Cur >= life {
				return nil, fmt.Errorf("%s heavy hitter %d weight %d reaches its lifetime weight %d: the expire did not count",
					c.dir, e.S, e.Cur, life)
			}
		}
	}

	// Contract 2 — burst detection. The planted final-epoch vertex must be
	// flagged, and its exact per-epoch weights must clear the engine's
	// thresholds (so the detection cannot be vacuously right); the planted
	// steady heavies must not be flagged.
	ecfg := eng.Config()
	curEpoch := pl.last / pl.epochLen
	epochW := func(v uint64, ep int64) int64 {
		return ex.VertexOut(v, ep*pl.epochLen, (ep+1)*pl.epochLen-1)
	}
	exCur := epochW(anaBurstVertex, curEpoch)
	var exPrev int64
	for ep := curEpoch - int64(ecfg.EpochRing) + 1; ep < curEpoch; ep++ {
		exPrev += epochW(anaBurstVertex, ep)
	}
	exBase := exPrev / int64(ecfg.EpochRing-1)
	if exBase < 1 {
		exBase = 1
	}
	if float64(exCur)/float64(exBase) < ecfg.BurstFactor || exCur < ecfg.BurstMin {
		return nil, fmt.Errorf("planted burst is not a burst in exact ground truth (cur %d, base %d) — the plant is broken", exCur, exBase)
	}
	var burstSeen bool
	for _, e := range rs[2].Top {
		switch {
		case e.S == anaBurstVertex:
			burstSeen = true
			if !e.Burst {
				return nil, fmt.Errorf("planted burst vertex scored %.1f but was not flagged", e.Score)
			}
		case e.S >= anaOutHeavyBase && e.S < anaOutHeavyBase+anaHeavies:
			if e.Burst {
				return nil, fmt.Errorf("steady heavy hitter %d falsely flagged as a burst (score %.1f)", e.S, e.Score)
			}
		}
	}
	if !burstSeen {
		return nil, fmt.Errorf("planted burst vertex missing from the burst answer")
	}

	// Contract 3 — delta ranking ≡ exact (order and sign), and every
	// Prev/Cur equals a direct summary probe of the same window while never
	// undercounting exact.
	checkDelta := func(kind string, got []query.Entry, wantLen int,
		exactPrev, exactCur func(query.Entry) int64, directPrev, directCur func(query.Entry) int64) error {
		if len(got) != wantLen {
			return fmt.Errorf("%s returned %d entries, want %d", kind, len(got), wantLen)
		}
		// Exact ranking: |delta| descending, ties by id — rankByDelta's rule.
		type exd struct {
			e     query.Entry
			delta int64
		}
		ranked := make([]exd, len(got))
		for i, e := range got {
			ranked[i] = exd{e, exactCur(e) - exactPrev(e)}
		}
		sort.SliceStable(ranked, func(i, j int) bool {
			di, dj := ranked[i].delta, ranked[j].delta
			if di < 0 {
				di = -di
			}
			if dj < 0 {
				dj = -dj
			}
			if di != dj {
				return di > dj
			}
			return ranked[i].e.S < ranked[j].e.S
		})
		for i, e := range got {
			want := ranked[i]
			if e.S != want.e.S || e.D != want.e.D {
				return fmt.Errorf("%s rank %d = %d→%d, exact ground truth ranks %d→%d there",
					kind, i, e.S, e.D, want.e.S, want.e.D)
			}
			exDelta := exactCur(e) - exactPrev(e)
			if exDelta != 0 && anaSign(e.Delta) != anaSign(exDelta) {
				return fmt.Errorf("%s %d→%d delta %d has the wrong sign (exact %d)", kind, e.S, e.D, e.Delta, exDelta)
			}
			if e.Prev < exactPrev(e) || e.Cur < exactCur(e) {
				return fmt.Errorf("%s %d→%d prev/cur %d/%d undercounts exact %d/%d",
					kind, e.S, e.D, e.Prev, e.Cur, exactPrev(e), exactCur(e))
			}
			if dp, dc := directPrev(e), directCur(e); e.Prev != dp || e.Cur != dc || e.Delta != e.Cur-e.Prev {
				return fmt.Errorf("%s %d→%d prev/cur/delta %d/%d/%d diverges from direct probes %d/%d",
					kind, e.S, e.D, e.Prev, e.Cur, e.Delta, dp, dc)
			}
		}
		return nil
	}
	if err := checkDelta("delta_vertex", rs[3].Top, len(deltaCands),
		func(e query.Entry) int64 { return ex.VertexOut(e.S, pl.baseLo, pl.baseHi) },
		func(e query.Entry) int64 { return ex.VertexOut(e.S, pl.cmpLo, pl.cmpHi) },
		func(e query.Entry) int64 { return s.VertexOut(e.S, pl.baseLo, pl.baseHi) },
		func(e query.Entry) int64 { return s.VertexOut(e.S, pl.cmpLo, pl.cmpHi) },
	); err != nil {
		return nil, err
	}
	if err := checkDelta("delta_edge", rs[4].Top, len(deltaEdges),
		func(e query.Entry) int64 { return ex.EdgeWeight(e.S, e.D, pl.baseLo, pl.baseHi) },
		func(e query.Entry) int64 { return ex.EdgeWeight(e.S, e.D, pl.cmpLo, pl.cmpHi) },
		func(e query.Entry) int64 { return s.EdgeWeight(e.S, e.D, pl.baseLo, pl.baseHi) },
		func(e query.Entry) int64 { return s.EdgeWeight(e.S, e.D, pl.cmpLo, pl.cmpHi) },
	); err != nil {
		return nil, err
	}

	// Contract 4 — cache transparency: the same batch through a
	// watermark-fenced read cache, cold then warm, must match the uncached
	// answers field for field.
	cache, err := rcache.New(s, rcache.Config{MaxBytes: anaCacheBudget})
	if err != nil {
		return nil, err
	}
	for _, pass := range []string{"cold", "warm"} {
		crs := query.DoBatchWith(cache, eng, qs)
		for i := range crs {
			if crs[i].Err != nil {
				return nil, fmt.Errorf("cached (%s) query %d: %w", pass, i, crs[i].Err)
			}
			if !reflect.DeepEqual(crs[i].Top, rs[i].Top) {
				return nil, fmt.Errorf("cached (%s) query %d (%v) diverges from uncached: %+v vs %+v",
					pass, i, qs[i].Kind, crs[i].Top, rs[i].Top)
			}
		}
	}
	// Every contract held: the flags are 1 and, since any undercount above
	// returned an error, the undercount tally is 0.
	c.record("ingest_eps", ingestEPS)
	for _, flag := range []string{"hh_out_match", "hh_in_match", "burst_flagged", "delta_rank_match", "cached_match"} {
		c.record(flag, 1)
	}
	c.record("undercounts", 0)
	return []string{metrics.FormatEPS(ingestEPS),
		fmt.Sprintf("top-%d ≡ exact", anaHeavies), "planted flagged",
		"rank ≡ exact", "≡ uncached", "0 undercounts"}, nil
}
