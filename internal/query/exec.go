package query

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
)

// Op selects the single-shard primitive a Probe evaluates.
type Op uint8

// The single-shard probe primitives. Every query kind decomposes into
// them: an edge query is one OpEdge probe in the source's shard, a path or
// subgraph query is one OpEdge probe per constituent edge, a vertex-out
// query is one OpVertexOut probe, and a vertex-in query is one OpVertexIn
// probe per shard (incoming edges are scattered by their sources, so each
// shard contributes a partial estimate).
const (
	OpEdge      Op = iota // weight of edge S→D in [Ts, Te]
	OpVertexOut           // out-weight of vertex S in [Ts, Te]
	OpVertexIn            // this shard's share of the in-weight of vertex S
)

// Probe is one single-shard primitive of a planned query. Vertex probes
// carry the vertex in S.
type Probe struct {
	Op     Op
	S, D   uint64
	Ts, Te int64
}

// Prober is the sharded read surface the executor drives; package shard
// implements it.
type Prober interface {
	// NumShards returns the number of partitions.
	NumShards() int
	// ShardFor returns the shard owning edges whose source vertex is v.
	ShardFor(v uint64) int
	// ProbeShard evaluates every probe against shard i under a single
	// read-lock acquisition, writing probe j's estimate to out[j]. It must
	// not retain probes or out: the executor hands it pooled scratch.
	ProbeShard(i int, probes []Probe, out []int64)
}

// Entry is one row of a ranked analytics answer. The delta kinds fill
// Prev/Cur/Delta (base-window weight, compare-window weight, Cur−Prev);
// heavy_hitters fills Cur with the vertex's weight in the retained summary;
// burst fills Cur (current-epoch weight), Prev (per-epoch baseline, floored
// at 1), Score (Cur/Prev), and Burst (score cleared the engine's
// threshold). Every weight is a probe of the summary. D is set only for
// edge-grained entries (delta_edge).
type Entry struct {
	S     uint64  `json:"s"`
	D     uint64  `json:"d,omitempty"`
	Cur   int64   `json:"cur"`
	Prev  int64   `json:"prev,omitempty"`
	Delta int64   `json:"delta,omitempty"`
	Score float64 `json:"score,omitempty"`
	Burst bool    `json:"burst,omitempty"`
}

// Result is the answer to one Query: the estimated aggregated weight (the
// scalar kinds), a ranked Top list (the analytics kinds), or the per-query
// validation error. A weight is a sum of per-shard one-sided estimates and
// never under-estimates the truth; delta entries are differences of two
// such estimates over the two windows.
type Result struct {
	Weight int64
	Top    []Entry
	Err    error
}

// Analytics supplies what the analytics kinds cannot read off a query:
// which vertices to probe, and burst's epoch geometry. It computes no
// weight — every answer is probes of the summary. internal/analytics
// implements it.
type Analytics interface {
	// Candidates returns up to max tracked vertex ids for an item of kind
	// k, most promising first: for heavy_hitters and delta_vertex the
	// sources (dir "out" or "") or destinations (dir "in") tracked by
	// weight, for burst the sources tracked in the current epoch.
	Candidates(k Kind, dir string, max int) []uint64
	// Burst returns burst's windows and flag rule as of now.
	Burst() Burst
}

// Burst is the geometry of a burst query: the baseline window [Ts, Te]
// (the epochs before the current one), the current epoch [Ts2, Te2], and
// the flag rule — Cur ≥ Factor·Prev and Cur ≥ Min.
type Burst struct {
	Ts, Te   int64
	Ts2, Te2 int64
	Factor   float64
	Min      int64
}

// Fill completes an item from a before it is budgeted and planned: a
// delta_vertex item without candidates gets a's tracked ids; a
// heavy_hitters item without a window gets the whole retained range and,
// unless it carries its own, a's candidates; a burst item without a window
// gets the current epoch's geometry and candidates. A filled item is left
// alone, so filling twice plans what was budgeted once.
func Fill(q *Query, a Analytics) {
	if a == nil {
		return
	}
	switch {
	case q.Kind == KindDeltaVertex && len(q.Candidates) == 0:
		q.Candidates = a.Candidates(q.Kind, q.Dir, DefaultCandidates)
		return
	case q.Ts|q.Te|q.Ts2|q.Te2 != 0: // filled, or windowed by its sender
		return
	case q.Kind == KindHeavyHitters:
		q.Ts, q.Te = math.MinInt64, math.MaxInt64
	case q.Kind == KindBurst:
		b := a.Burst()
		q.Ts, q.Te, q.Ts2, q.Te2 = b.Ts, b.Te, b.Ts2, b.Te2
	default:
		return
	}
	if len(q.Candidates) == 0 {
		q.Candidates = a.Candidates(q.Kind, q.Dir, MaxCandidates)
	}
}

// Do answers one query: the one-element case of DoBatch, so invalid
// queries come back with Err set, single-shard kinds touch only their
// shard, and fan-out kinds visit each shard once.
func Do(p Prober, q Query) Result { return DoBatch(p, []Query{q})[0] }

// DoBatch answers a batch of queries, visiting every shard at most once.
// It is DoBatchWith with no analytics backend: heavy_hitters and burst fail
// with CodeAnalyticsDisabled.
func DoBatch(p Prober, qs []Query) []Result { return DoBatchWith(p, nil, qs) }

// DoBatchWith answers a batch of queries, visiting every shard at most
// once: the constituent probes of all valid queries are grouped by shard,
// each shard's group is evaluated under a single read-lock acquisition
// (concurrently across shards when more than one is touched and more than
// one P is available), and each query's estimate is the sum of its probes'
// results — the same one-sided merge the per-kind methods perform,
// amortized over the batch.
//
// The analytics kinds decompose into the same probes — per candidate, two
// window estimates (delta_vertex, delta_edge, burst) or one over the whole
// retained range (heavy_hitters), planned contiguously — so they flow
// through the identical shard/read-cache/lock-bound machinery; only their
// merge differs (a ranking instead of a span sum). Each item is first
// completed by Fill from a; heavy_hitters and burst fail with
// CodeAnalyticsDisabled when a is nil.
//
// Results align with the input: res[i] answers qs[i], carrying its weight,
// its ranked Top list, or its validation error. Invalid queries do not
// affect their neighbors. The planner's scratch is pooled, so the result
// slice is the one allocation of a batch of scalar kinds run on one P.
func DoBatchWith(p Prober, a Analytics, qs []Query) []Result {
	pl := planPool.Get().(*plan)
	res := pl.do(p, a, qs)
	putPlan(pl)
	return res
}

// span is one query's run of slots in the flat result vector.
type span struct{ start, end int }

// plan is one batch's scratch: each query's span, each shard's probe group
// with the slot each probe answers and the answers ProbeShard wrote, and
// the flat result vector. Every slice keeps its capacity from one batch to
// the next; nothing in a plan outlives the call it serves.
type plan struct {
	p      Prober
	qs     []Query // the batch as Fill completed it, when an Analytics is given
	spans  []span
	probes [][]Probe // per shard
	slots  [][]int   // per shard: the slot each probe answers
	out    [][]int64 // per shard: ProbeShard's answers, in probe order
	vals   []int64   // per slot
	wg     sync.WaitGroup
}

// maxPooledProbes bounds what a pooled plan holds, as the server's
// maxPooledItems bounds its envelopes: a plan that grew past it is dropped.
const maxPooledProbes = 1 << 12

var planPool = sync.Pool{New: func() any { return new(plan) }}

func putPlan(pl *plan) {
	if pl.held() > maxPooledProbes {
		return
	}
	pl.p = nil
	clear(pl.qs)
	pl.qs = pl.qs[:0]
	planPool.Put(pl)
}

// held is the most entries the plan keeps room for in one vector: spans,
// queries, vals, or the shards' probe lists together — batches that pile
// up on different shards each grow a different list. A shard's slot and
// answer lists grow with its probe list.
func (pl *plan) held() int {
	probes := 0
	for _, g := range pl.probes[:cap(pl.probes)] {
		probes += cap(g)
	}
	return max(cap(pl.vals), cap(pl.spans), cap(pl.qs), probes)
}

// reset empties the plan for a batch of nq queries over n shards. The
// shard count may differ from the last batch's: a snapshot upload swaps in
// a summary with its own.
func (pl *plan) reset(nq, n int) {
	pl.spans = slices.Grow(pl.spans[:0], nq)[:nq]
	pl.probes = perShard(pl.probes, n)
	pl.slots = perShard(pl.slots, n)
	pl.out = perShard(pl.out, n)
	pl.vals = pl.vals[:0]
}

// perShard returns s with n empty lists, each keeping its capacity — those
// past the last batch's shard count too, which a batch over more shards
// exposes again.
func perShard[T any](s [][]T, n int) [][]T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([][]T, n-cap(s))...)
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// add plans probe pr in shard i at the next slot.
func (pl *plan) add(i int, pr Probe) {
	pl.probes[i] = append(pl.probes[i], pr)
	pl.slots[i] = append(pl.slots[i], len(pl.vals))
	pl.vals = append(pl.vals, 0)
}

// vertex plans v's out-weight (one probe in v's shard) or in-weight (one
// probe per shard) over [ts, te].
func (pl *plan) vertex(in bool, v uint64, ts, te int64) {
	if !in {
		pl.add(pl.p.ShardFor(v), Probe{Op: OpVertexOut, S: v, Ts: ts, Te: te})
		return
	}
	for i := range pl.probes {
		pl.add(i, Probe{Op: OpVertexIn, S: v, Ts: ts, Te: te})
	}
}

func (pl *plan) do(p Prober, a Analytics, qs []Query) []Result {
	res := make([]Result, len(qs))
	n := p.NumShards()
	pl.p = p
	pl.reset(len(qs), n)
	if a != nil {
		// Complete copies: the caller's items stay as they were.
		pl.qs = append(pl.qs[:0], qs...)
		qs = pl.qs
		for i := range qs {
			Fill(&qs[i], a)
		}
	}

	// Plan: expand each query into probes. Slots — indices into the flat
	// result vector — are assigned in expansion order, so each query owns a
	// contiguous span and merging is a span sum.
	for qi, q := range qs {
		if err := q.Validate(); err != nil {
			res[qi].Err = err
			continue
		}
		if a == nil && (q.Kind == KindHeavyHitters || q.Kind == KindBurst) {
			res[qi].Err = errf(CodeAnalyticsDisabled, "%v query needs the analytics engine (start higgsd with -analytics)", q.Kind)
			continue
		}
		pl.spans[qi].start = len(pl.vals)
		switch q.Kind {
		case KindEdge:
			pl.add(p.ShardFor(q.S), Probe{Op: OpEdge, S: q.S, D: q.D, Ts: q.Ts, Te: q.Te})
		case KindVertexOut, KindVertexIn:
			pl.vertex(q.Kind == KindVertexIn, q.V, q.Ts, q.Te)
		case KindPath:
			for i := 0; i+1 < len(q.Path); i++ {
				pl.add(p.ShardFor(q.Path[i]), Probe{Op: OpEdge, S: q.Path[i], D: q.Path[i+1], Ts: q.Ts, Te: q.Te})
			}
		case KindSubgraph:
			for _, e := range q.Edges {
				pl.add(p.ShardFor(e[0]), Probe{Op: OpEdge, S: e[0], D: e[1], Ts: q.Ts, Te: q.Te})
			}
		case KindDeltaVertex, KindHeavyHitters, KindBurst:
			// Per candidate: its weight over the window, then (all but
			// heavy_hitters) over the compare window, contiguous — the merge
			// walks fixed-size strides.
			for _, v := range q.Candidates {
				pl.vertex(q.in(), v, q.Ts, q.Te)
				if q.Kind != KindHeavyHitters {
					pl.vertex(q.in(), v, q.Ts2, q.Te2)
				}
			}
		case KindDeltaEdge:
			for _, e := range q.Edges {
				pl.add(p.ShardFor(e[0]), Probe{Op: OpEdge, S: e[0], D: e[1], Ts: q.Ts, Te: q.Te})
				pl.add(p.ShardFor(e[0]), Probe{Op: OpEdge, S: e[0], D: e[1], Ts: q.Ts2, Te: q.Te2})
			}
		}
		pl.spans[qi].end = len(pl.vals)
	}

	pl.run()
	vals := pl.vals

	// Merge: each valid scalar query is the sum of its span; each analytics
	// query ranks its candidates over fixed-size strides of its span.
	for qi, q := range qs {
		if res[qi].Err != nil {
			continue
		}
		sp := pl.spans[qi]
		per := q.fanout(n)
		switch q.Kind {
		case KindDeltaVertex, KindBurst:
			entries := make([]Entry, len(q.Candidates))
			for ci, v := range q.Candidates {
				w := vals[sp.start+ci*2*per:][:2*per]
				entries[ci] = Entry{S: v, Prev: sum(w[:per]), Cur: sum(w[per:])}
			}
			if q.Kind == KindBurst {
				res[qi].Top = rankBursts(entries, q, a.Burst())
				continue
			}
			for i := range entries {
				entries[i].Delta = entries[i].Cur - entries[i].Prev
			}
			res[qi].Top = rankByDelta(entries, q.K)
		case KindHeavyHitters:
			entries := make([]Entry, 0, len(q.Candidates))
			for ci, v := range q.Candidates {
				if cur := sum(vals[sp.start+ci*per:][:per]); cur > 0 {
					entries = append(entries, Entry{S: v, Cur: cur})
				}
			}
			res[qi].Top = rank(entries, q.K, func(a, b Entry) int { return cmp.Compare(b.Cur, a.Cur) })
		case KindDeltaEdge:
			entries := make([]Entry, len(q.Edges))
			for ci, e := range q.Edges {
				base := sp.start + ci*2
				prev, cur := vals[base], vals[base+1]
				entries[ci] = Entry{S: e[0], D: e[1], Prev: prev, Cur: cur, Delta: cur - prev}
			}
			res[qi].Top = rankByDelta(entries, q.K)
		default:
			res[qi].Weight = sum(vals[sp.start:sp.end])
		}
	}
	return res
}

func sum(vs []int64) (s int64) {
	for _, v := range vs {
		s += v
	}
	return s
}

// run evaluates every touched shard's group with one ProbeShard call — one
// read-lock acquisition — each. When one shard is touched or one P is
// available the groups run one after another on the caller's goroutine: a
// goroutine there would only be switched to, and would grow a fresh stack
// through the core's recursion. Otherwise the caller runs the last group
// itself while one goroutine per other group runs the rest; all of them
// write disjoint slots. DESIGN.md §11 has the measurements that keep both
// paths, and why reading GOMAXPROCS adds no contention the fan-out lacks.
func (pl *plan) run() {
	touched, last := 0, -1
	for i, g := range pl.probes {
		if len(g) > 0 {
			touched++
			last = i
		}
	}
	if touched <= 1 || runtime.GOMAXPROCS(0) == 1 {
		for i, g := range pl.probes {
			if len(g) > 0 {
				pl.runShard(i)
			}
		}
		return
	}
	for i, g := range pl.probes[:last] {
		if len(g) > 0 {
			pl.wg.Add(1)
			go pl.runShardDone(i)
		}
	}
	pl.runShard(last)
	pl.wg.Wait()
}

// runShard evaluates shard i's group and scatters its answers to their
// slots.
func (pl *plan) runShard(i int) {
	out := slices.Grow(pl.out[i][:0], len(pl.probes[i]))[:len(pl.probes[i])]
	pl.out[i] = out
	pl.p.ProbeShard(i, pl.probes[i], out)
	for j, s := range pl.slots[i] {
		pl.vals[s] = out[j]
	}
}

// runShardDone is runShard on a goroutine of run's fan-out.
func (pl *plan) runShardDone(i int) {
	defer pl.wg.Done()
	pl.runShard(i)
}

// topK resolves a query's K field to the effective ranked-output size.
func topK(k int) int {
	if k <= 0 {
		return DefaultTopK
	}
	return k
}

// rank sorts entries by by, ties by S then D ascending (so ranking is
// deterministic), and truncates them to the effective top-k.
func rank(entries []Entry, k int, by func(a, b Entry) int) []Entry {
	slices.SortFunc(entries, func(a, b Entry) int {
		return cmp.Or(by(a, b), cmp.Compare(a.S, b.S), cmp.Compare(a.D, b.D))
	})
	if kk := topK(k); len(entries) > kk {
		entries = entries[:kk]
	}
	return entries
}

// rankByDelta ranks entries by |Delta| descending: a fall ranks as high as
// a rise.
func rankByDelta(entries []Entry, k int) []Entry {
	abs := func(x int64) int64 { return max(x, -x) }
	return rank(entries, k, func(a, b Entry) int { return cmp.Compare(abs(b.Delta), abs(a.Delta)) })
}

// rankBursts turns burst's window sums into scores — Prev becomes the
// baseline's per-epoch mean, floored at 1, and Score is Cur/Prev — flags
// each entry b's rule clears, and ranks them by score, then Cur.
func rankBursts(entries []Entry, q Query, b Burst) []Entry {
	epochs := q.epochs()
	for i := range entries {
		e := &entries[i]
		e.Prev = max(e.Prev/epochs, 1)
		e.Score = float64(e.Cur) / float64(e.Prev)
		e.Burst = e.Score >= b.Factor && e.Cur >= b.Min
	}
	return rank(entries, q.K, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(b.Cur, a.Cur))
	})
}
