package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"higgs/internal/exact"
	"higgs/internal/query"
	"higgs/internal/stream"
)

// Every /v2/query batch has the same shape, in this order: 10 edge
// queries, 3 vertex_out, 1 vertex_in, 1 four-hop path, 1 eight-edge
// subgraph.
const (
	batchEdges    = 10
	batchVOut     = 3
	pathHops      = 4
	subgraphEdges = 8
	queryBatch    = batchEdges + batchVOut + 3
	// probesPerBatch is what the planner expands one batch into: a
	// vertex_in costs one probe per shard.
	probesPerBatch = batchEdges + batchVOut + shards + pathHops + subgraphEdges
)

// queryGen draws queries over the live window in window-relative time:
// second 0 is the start of the oldest live cycle, and shifting a query by
// whole cycles asks the same question of a later window.
type queryGen struct {
	z    sizes
	rng  *rand.Rand
	base stream.Stream
	ex   *exact.Store // over the base cycle, timestamps in [0, Span)
}

func newQueryGen(z sizes, base stream.Stream, ex *exact.Store, seed int64) *queryGen {
	return &queryGen{z: z, rng: rand.New(rand.NewSource(seed)), base: base, ex: ex}
}

// window draws a [ts, te] of one of three lengths — span/64, span/8, the
// whole live window — placed so that it contains the instant at.
func (g *queryGen) window(at int64) (ts, te int64) {
	live := int64(g.z.WindowCycles) * g.z.Span
	length := [3]int64{g.z.Span / 64, g.z.Span / 8, live}[g.rng.Intn(3)]
	if length < 1 {
		length = 1
	}
	ts = at - g.rng.Int63n(length)
	ts = max(0, min(ts, live-length))
	return ts, ts + length - 1
}

// occurrence picks one edge of the live window: a base edge and the
// window-relative instant one of its replays arrived at.
func (g *queryGen) occurrence() (stream.Edge, int64) {
	e := g.base[g.rng.Intn(len(g.base))]
	return e, int64(g.rng.Intn(g.z.WindowCycles))*g.z.Span + e.T
}

func (g *queryGen) edge() query.Query {
	e, at := g.occurrence()
	ts, te := g.window(at)
	return query.NewEdge(e.S, e.D, ts, te)
}

func (g *queryGen) vertexOut() query.Query {
	e, at := g.occurrence()
	ts, te := g.window(at)
	return query.NewVertexOut(e.S, ts, te)
}

func (g *queryGen) vertexIn() query.Query {
	e, at := g.occurrence()
	ts, te := g.window(at)
	return query.NewVertexIn(e.D, ts, te)
}

// path walks pathHops edges of the base graph from a random source; a
// vertex without out-edges continues at another random source, which makes
// that hop a probe for an edge that does not exist — still a legal probe.
func (g *queryGen) path() query.Query {
	e, at := g.occurrence()
	ts, te := g.window(at)
	p := []uint64{e.S, e.D}
	for len(p) < pathHops+1 {
		next := g.base[g.rng.Intn(len(g.base))].S
		if nb := g.ex.OutNeighbors(p[len(p)-1]); len(nb) > 0 {
			next = nb[g.rng.Intn(len(nb))]
		}
		p = append(p, next)
	}
	return query.NewPath(p, ts, te)
}

func (g *queryGen) subgraph() query.Query {
	_, at := g.occurrence()
	ts, te := g.window(at)
	edges := make([][2]uint64, subgraphEdges)
	for i := range edges {
		e := g.base[g.rng.Intn(len(g.base))]
		edges[i] = [2]uint64{e.S, e.D}
	}
	return query.NewSubgraph(edges, ts, te)
}

// slotGroup is a run of consecutive batch slots of one query kind.
type slotGroup struct {
	slots int
	draw  func() query.Query
}

// batchShape lists the slot groups of a batch, in batch order.
func (g *queryGen) batchShape() []slotGroup {
	return []slotGroup{{batchEdges, g.edge}, {batchVOut, g.vertexOut}, {1, g.vertexIn}, {1, g.path}, {1, g.subgraph}}
}

// probeKey identifies one read-cache entry: the cache keys single-shard
// probes, and a vertex_in probe is cached once per shard.
type probeKey struct {
	op     query.Op
	s, d   uint64
	ts, te int64
	shard  int
}

// probeKeys expands a query into the cache entries it touches.
func probeKeys(q query.Query) []probeKey {
	switch q.Kind {
	case query.KindEdge:
		return []probeKey{{op: query.OpEdge, s: q.S, d: q.D, ts: q.Ts, te: q.Te}}
	case query.KindVertexOut:
		return []probeKey{{op: query.OpVertexOut, s: q.V, ts: q.Ts, te: q.Te}}
	case query.KindVertexIn:
		keys := make([]probeKey, shards)
		for i := range keys {
			keys[i] = probeKey{op: query.OpVertexIn, s: q.V, ts: q.Ts, te: q.Te, shard: i}
		}
		return keys
	case query.KindPath:
		keys := make([]probeKey, 0, len(q.Path)-1)
		for i := 0; i+1 < len(q.Path); i++ {
			keys = append(keys, probeKey{op: query.OpEdge, s: q.Path[i], d: q.Path[i+1], ts: q.Ts, te: q.Te})
		}
		return keys
	case query.KindSubgraph:
		keys := make([]probeKey, len(q.Edges))
		for i, e := range q.Edges {
			keys[i] = probeKey{op: query.OpEdge, s: e[0], d: e[1], ts: q.Ts, te: q.Te}
		}
		return keys
	}
	return nil
}

// coldBatches returns n batches in which no probe occurs twice. Replayed
// in order, round after round, each cache entry is touched once per round
// with more distinct entries in between than the cache can hold, so an LRU
// never hits.
func (g *queryGen) coldBatches(n int) [][]query.Query {
	seen := make(map[probeKey]bool, n*probesPerBatch)
	shape := g.batchShape()
	out := make([][]query.Query, n)
	for b := range out {
		for _, grp := range shape {
			for s := 0; s < grp.slots; s++ {
				q := grp.draw()
				for !fresh(seen, probeKeys(q)) {
					q = grp.draw()
				}
				for _, k := range probeKeys(q) {
					seen[k] = true
				}
				out[b] = append(out[b], q)
			}
		}
	}
	return out
}

// fresh reports whether none of keys is in seen or repeated within keys.
func fresh(seen map[probeKey]bool, keys []probeKey) bool {
	for i, k := range keys {
		if seen[k] {
			return false
		}
		for _, prev := range keys[:i] {
			if prev == k {
				return false
			}
		}
	}
	return true
}

// hotBatches returns n batches drawn Zipf(1.1) from per-kind pools that
// together expand to at most z.HotDistinct probes — a working set the
// cache holds several times over.
func (g *queryGen) hotBatches(n int) [][]query.Query {
	// `unit` queries per slot: the pools' probes add up to at most
	// unit × probesPerBatch ≤ HotDistinct.
	unit := max(1, g.z.HotDistinct/probesPerBatch)
	shape := g.batchShape()
	pools := make([][]query.Query, len(shape))
	zipfs := make([]*rand.Zipf, len(shape))
	for i, grp := range shape {
		pools[i] = make([]query.Query, unit*grp.slots)
		for j := range pools[i] {
			pools[i][j] = grp.draw()
		}
		zipfs[i] = rand.NewZipf(g.rng, 1.1, 1, uint64(len(pools[i])-1))
	}
	out := make([][]query.Query, n)
	for b := range out {
		for i, grp := range shape {
			for s := 0; s < grp.slots; s++ {
				out[b] = append(out[b], pools[i][zipfs[i].Uint64()])
			}
		}
	}
	return out
}

// distinctProbes counts the distinct cache entries a list of batches
// touches.
func distinctProbes(batches [][]query.Query) int {
	seen := make(map[probeKey]bool)
	for _, b := range batches {
		for _, q := range b {
			for _, k := range probeKeys(q) {
				seen[k] = true
			}
		}
	}
	return len(seen)
}

// exactAnswer is the true weight of a window-relative query: the live
// window is WindowCycles shifted copies of the base cycle, so the answer
// is the base cycle's answer summed over the shifts.
func (g *queryGen) exactAnswer(q query.Query) int64 {
	var sum int64
	for c := 0; c < g.z.WindowCycles; c++ {
		off := int64(c) * g.z.Span
		ts, te := q.Ts-off, q.Te-off
		switch q.Kind {
		case query.KindEdge:
			sum += g.ex.EdgeWeight(q.S, q.D, ts, te)
		case query.KindVertexOut:
			sum += g.ex.VertexOut(q.V, ts, te)
		case query.KindVertexIn:
			sum += g.ex.VertexIn(q.V, ts, te)
		case query.KindPath:
			sum += g.ex.PathWeight(q.Path, ts, te)
		case query.KindSubgraph:
			sum += g.ex.SubgraphWeight(q.Edges, ts, te)
		}
	}
	return sum
}

// queryOps turns window-relative batches into requests against the window
// whose oldest live cycle is cycle first.
func (g *queryGen) queryOps(batches [][]query.Query, first int) []op {
	shift := cycleStart(g.z, first)
	ops := make([]op, len(batches))
	for i, rel := range batches {
		o := op{kind: opQuery, queries: make([]query.Query, len(rel)), exact: make([]int64, len(rel))}
		for j, q := range rel {
			o.exact[j] = g.exactAnswer(q)
			q.Ts += shift
			q.Te += shift
			o.queries[j] = q
		}
		o.req = httpRequest("POST", "/v2/query", encodeQueries(o.queries))
		o.endsSegment = (i+1)%g.z.QuerySegment == 0 || i+1 == len(batches)
		ops[i] = o
	}
	return ops
}

// encodeQueries renders a /v2/query body.
func encodeQueries(qs []query.Query) []byte {
	b := make([]byte, 0, 96*len(qs))
	b = append(b, '[')
	for i, q := range qs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"kind":"`...)
		b = append(b, q.Kind.String()...)
		b = append(b, '"')
		switch q.Kind {
		case query.KindEdge:
			b = appendField(b, "s", q.S)
			b = appendField(b, "d", q.D)
		case query.KindVertexOut, query.KindVertexIn:
			b = appendField(b, "v", q.V)
		case query.KindPath:
			b = append(b, `,"path":[`...)
			for j, v := range q.Path {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendUint(b, v, 10)
			}
			b = append(b, ']')
		case query.KindSubgraph:
			b = append(b, `,"edges":[`...)
			for j, e := range q.Edges {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, '[')
				b = strconv.AppendUint(b, e[0], 10)
				b = append(b, ',')
				b = strconv.AppendUint(b, e[1], 10)
				b = append(b, ']')
			}
			b = append(b, ']')
		default:
			panic(fmt.Sprintf("benchmark: no encoding for query kind %v", q.Kind))
		}
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, q.Ts, 10)
		b = append(b, `,"te":`...)
		b = strconv.AppendInt(b, q.Te, 10)
		b = append(b, '}')
	}
	return append(b, ']')
}

func appendField(b []byte, name string, v uint64) []byte {
	b = append(b, `,"`...)
	b = append(b, name...)
	b = append(b, `":`...)
	return strconv.AppendUint(b, v, 10)
}
