// Package query defines the unified temporal query surface of this
// repository (DESIGN.md §11): one Query value describes any of the paper's
// temporal query kinds (§V) — edge, vertex (out / in), path, and subgraph —
// over a closed [Ts, Te] window, one Result carries its estimated weight or
// its per-query error, and the executor answers whole batches with at most
// one read-lock acquisition per shard per batch.
//
// The package knows nothing about HIGGS internals. Planning decomposes
// every query into probes — the three single-shard primitives (edge weight,
// vertex out-weight, vertex in-weight) — and the executor drives any
// backend implementing Prober, grouping probes by shard so each shard is
// visited exactly once per batch. Package shard implements Prober; every
// merged answer is a sum of per-shard one-sided estimates, so the
// never-underestimate guarantee of package core carries through unchanged.
package query

import (
	"fmt"
	"math"
	"strings"
)

// Kind selects the temporal query primitive a Query evaluates.
type Kind uint8

// The temporal query kinds (paper §V). A vertex query splits into its two
// directions: out-weight is a single-shard lookup, in-weight fans out.
// The zero Kind is deliberately invalid, so a JSON query missing its
// "kind" field fails validation instead of silently becoming an edge
// query.
const (
	kindMissing   Kind = iota // zero value: no kind given
	KindEdge                  // aggregated weight of edge S→D
	KindVertexOut             // aggregated weight of V's outgoing edges
	KindVertexIn              // aggregated weight of V's incoming edges
	KindPath                  // sum of edge weights along Path
	KindSubgraph              // total weight of the Edges set

	// The analytics kinds (DESIGN.md §17). Each decomposes into ordinary
	// per-shard probes of its candidates — two one-sided window estimates per
	// candidate, or one over the retained range for heavy_hitters — and
	// ranks the candidates. heavy_hitters and burst take their candidates
	// (and windows) from an analytics engine (Fill).
	KindDeltaVertex  // top-k candidates by |window B − window A| out/in-weight
	KindDeltaEdge    // top-k candidate edges by |window B − window A| weight
	KindHeavyHitters // top-k vertices by out/in-weight in the retained summary
	KindBurst        // top-k vertices by current-epoch over baseline out-weight
)

// kindNames is the wire form of each Kind, in declaration order; the
// zero Kind has no wire form.
var kindNames = [...]string{"", "edge", "vertex_out", "vertex_in", "path", "subgraph",
	"delta_vertex", "delta_edge", "heavy_hitters", "burst"}

// String returns the wire name of the kind ("edge", "vertex_out", ...).
func (k Kind) String() string {
	if k != kindMissing && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind maps a wire name back to its Kind.
func ParseKind(s string) (Kind, error) {
	for i := int(KindEdge); i < len(kindNames); i++ {
		if s == kindNames[i] {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown query kind %q (want one of %s)", s, strings.Join(kindNames[KindEdge:], ", "))
}

// MarshalText encodes the kind as its wire name, so Query serializes
// naturally with encoding/json.
func (k Kind) MarshalText() ([]byte, error) {
	if k == kindMissing || int(k) >= len(kindNames) {
		return nil, fmt.Errorf("unknown query kind %d", uint8(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText decodes a wire name.
func (k *Kind) UnmarshalText(b []byte) error {
	kk, err := ParseKind(string(b))
	if err != nil {
		return err
	}
	*k = kk
	return nil
}

// Query describes one temporal range query. Only the fields of its Kind
// are consulted: S/D for an edge query, V for the vertex queries, Path for
// a path query, Edges for a subgraph query. The window [Ts, Te] is closed
// on both ends and must satisfy Te ≥ Ts.
//
// The JSON form is the /v2/query wire format: Kind marshals as its name
// and unused fields are omitted, e.g.
//
//	{"kind":"edge","s":1,"d":2,"ts":0,"te":100}
//	{"kind":"path","path":[1,2,3],"ts":0,"te":100}
type Query struct {
	Kind  Kind        `json:"kind"`
	S     uint64      `json:"s,omitempty"`     // edge source (KindEdge)
	D     uint64      `json:"d,omitempty"`     // edge destination (KindEdge)
	V     uint64      `json:"v,omitempty"`     // vertex (KindVertexOut, KindVertexIn)
	Path  []uint64    `json:"path,omitempty"`  // ≥ 2 vertices (KindPath)
	Edges [][2]uint64 `json:"edges,omitempty"` // edge set (KindSubgraph, KindDeltaEdge)
	Ts    int64       `json:"ts"`
	Te    int64       `json:"te"`

	// Analytics fields (DESIGN.md §17). [Ts2, Te2] is the compare window of
	// the delta kinds: candidates are ranked by |weight in [Ts2,Te2] −
	// weight in [Ts,Te]|. K caps the ranked output (0 = DefaultTopK). Dir
	// selects the degree direction of delta_vertex and heavy_hitters ("" =
	// "out"). Candidates is the vertex set the analytics kinds rank; Fill
	// sets it from the analytics engine's tracked ids when a client omits
	// it, and sets the windows of heavy_hitters and burst.
	Ts2        int64    `json:"ts2,omitempty"`
	Te2        int64    `json:"te2,omitempty"`
	K          int      `json:"k,omitempty"`
	Dir        string   `json:"dir,omitempty"`
	Candidates []uint64 `json:"candidates,omitempty"`
}

// Degree directions of delta_vertex and heavy_hitters queries.
const (
	DirOut = "out"
	DirIn  = "in"
)

// DefaultTopK is the ranked-output size when a query leaves K zero.
const DefaultTopK = 10

// MaxTopK bounds K: ranked answers are meant to be glanceable top-k lists,
// not full scans in disguise.
const MaxTopK = 256

// MaxCandidates bounds a candidate set, so one item cannot plan an
// unbounded number of probes (admission budgets see the real count, but the
// per-item cap keeps a single query's planning cost sane).
const MaxCandidates = 4096

// DefaultCandidates caps the candidate set Fill gives a delta_vertex item
// that omitted its own: the engine's top tracked vertices, enough to rank
// "what changed most" without letting a convenience default plan
// thousands of probes.
const DefaultCandidates = 256

// NewEdge returns an edge-weight query for s→d over [ts, te].
func NewEdge(s, d uint64, ts, te int64) Query {
	return Query{Kind: KindEdge, S: s, D: d, Ts: ts, Te: te}
}

// NewVertexOut returns an outgoing vertex-weight query for v over [ts, te].
func NewVertexOut(v uint64, ts, te int64) Query {
	return Query{Kind: KindVertexOut, V: v, Ts: ts, Te: te}
}

// NewVertexIn returns an incoming vertex-weight query for v over [ts, te].
func NewVertexIn(v uint64, ts, te int64) Query {
	return Query{Kind: KindVertexIn, V: v, Ts: ts, Te: te}
}

// NewPath returns a path-weight query along path over [ts, te].
func NewPath(path []uint64, ts, te int64) Query {
	return Query{Kind: KindPath, Path: path, Ts: ts, Te: te}
}

// NewSubgraph returns a subgraph-weight query over the edge set in [ts, te].
func NewSubgraph(edges [][2]uint64, ts, te int64) Query {
	return Query{Kind: KindSubgraph, Edges: edges, Ts: ts, Te: te}
}

// NewDeltaVertex returns a vertex delta query: each candidate's out-weight
// is estimated over the base window [ts, te] and the compare window
// [ts2, te2], and candidates are ranked by |compare − base|. Set Dir to
// DirIn for in-weight deltas and K to cap the ranked output.
func NewDeltaVertex(candidates []uint64, ts, te, ts2, te2 int64) Query {
	return Query{Kind: KindDeltaVertex, Candidates: candidates, Ts: ts, Te: te, Ts2: ts2, Te2: te2}
}

// NewDeltaEdge returns an edge delta query over the candidate edge set:
// each edge's weight is estimated over both windows and edges are ranked by
// |compare − base|.
func NewDeltaEdge(edges [][2]uint64, ts, te, ts2, te2 int64) Query {
	return Query{Kind: KindDeltaEdge, Edges: edges, Ts: ts, Te: te, Ts2: ts2, Te2: te2}
}

// NewHeavyHitters returns a heavy-hitter query: the top-k of the analytics
// engine's tracked vertices by out-weight (dir DirOut or "") or in-weight
// (DirIn) in the retained summary, one probe (or one per shard) each.
func NewHeavyHitters(dir string, k int) Query {
	return Query{Kind: KindHeavyHitters, Dir: dir, K: k}
}

// NewBurst returns a burst query: the top-k of the vertices the analytics
// engine tracks in the current epoch, by their current-epoch out-weight
// over their per-epoch baseline, each flagged when the score clears the
// engine's burst threshold.
func NewBurst(k int) Query {
	return Query{Kind: KindBurst, K: k}
}

// Validate reports why the query cannot be answered: a missing or
// unknown kind, an inverted or zero-value time window, a path too short to
// contain an edge, a subgraph with no edges, or analytics parameters out of
// range. An empty subgraph is rejected rather than answered zero — like a
// one-vertex path, it asks about nothing, and a silent zero reads as "that
// subgraph carries no weight". A zero-value window {ts:0, te:0} is rejected
// for the same reason: it is almost always an item that never set its
// window, and silently answering the weight at instant 0 hides the bug.
// Every error is a *Error carrying a stable code (see errors.go).
func (q Query) Validate() error {
	switch q.Kind {
	case KindEdge, KindVertexOut, KindVertexIn:
	case KindPath:
		if len(q.Path) < 2 {
			return errf(CodeShortPath, "path query needs ≥ 2 vertices, got %d", len(q.Path))
		}
	case KindSubgraph:
		if len(q.Edges) == 0 {
			return errf(CodeEmptySubgraph, "subgraph query needs ≥ 1 edge, got 0")
		}
	case KindDeltaVertex:
		if len(q.Candidates) == 0 {
			return errf(CodeMissingCandidates, "delta_vertex query needs ≥ 1 candidate vertex (the server fills candidates from the analytics engine when enabled)")
		}
		if len(q.Candidates) > MaxCandidates {
			return errf(CodeTooManyCandidates, "delta_vertex query has %d candidates, max %d", len(q.Candidates), MaxCandidates)
		}
		if err := q.validateDir(); err != nil {
			return err
		}
	case KindDeltaEdge:
		if len(q.Edges) == 0 {
			return errf(CodeEmptySubgraph, "delta_edge query needs ≥ 1 candidate edge, got 0")
		}
		if len(q.Edges) > MaxCandidates {
			return errf(CodeTooManyCandidates, "delta_edge query has %d candidate edges, max %d", len(q.Edges), MaxCandidates)
		}
	case KindHeavyHitters, KindBurst:
		if q.Kind == KindHeavyHitters {
			if err := q.validateDir(); err != nil {
				return err
			}
		}
		if len(q.Candidates) > MaxCandidates {
			return errf(CodeTooManyCandidates, "%v query has %d candidates, max %d", q.Kind, len(q.Candidates), MaxCandidates)
		}
		if q.Te < q.Ts || q.Te2 < q.Ts2 {
			return errf(CodeInvertedWindow, "inverted time range: [%d, %d], [%d, %d]", q.Ts, q.Te, q.Ts2, q.Te2)
		}
		return q.validateTopK() // an unset window is Fill's to set, not an error
	case kindMissing:
		return errf(CodeMissingKind, "missing query kind (want one of %s)", strings.Join(kindNames[KindEdge:], ", "))
	default:
		return errf(CodeUnknownKind, "unknown query kind %d", uint8(q.Kind))
	}
	if q.Te < q.Ts {
		return errf(CodeInvertedWindow, "inverted time range: te = %d < ts = %d", q.Te, q.Ts)
	}
	if q.Ts == 0 && q.Te == 0 {
		return errf(CodeZeroWindow, "zero-value window {ts:0, te:0}: set the query window explicitly")
	}
	if q.Kind == KindDeltaVertex || q.Kind == KindDeltaEdge {
		if q.Te2 < q.Ts2 {
			return errf(CodeInvertedWindow, "inverted compare window: te2 = %d < ts2 = %d", q.Te2, q.Ts2)
		}
		if q.Ts2 == 0 && q.Te2 == 0 {
			return errf(CodeZeroWindow, "zero-value compare window {ts2:0, te2:0}: delta queries need both windows")
		}
		return q.validateTopK()
	}
	return nil
}

// validateDir checks the degree direction of delta_vertex / heavy_hitters.
func (q Query) validateDir() error {
	if q.Dir != "" && q.Dir != DirOut && q.Dir != DirIn {
		return errf(CodeBadDirection, "bad direction %q (want %q or %q)", q.Dir, DirOut, DirIn)
	}
	return nil
}

// validateTopK checks the ranked-output size of the analytics kinds.
func (q Query) validateTopK() error {
	if q.K < 0 || q.K > MaxTopK {
		return errf(CodeBadTopK, "bad top-k %d (want 0 < k ≤ %d, or 0 for the default %d)", q.K, MaxTopK, DefaultTopK)
	}
	return nil
}

// ProbeCount returns how many single-shard probes the query plans on an
// n-shard backend — what its execution will cost — without planning it: 1
// for edge and vertex-out, n for vertex-in (one partial estimate per
// shard), one per constituent edge for path and subgraph. A delta or burst
// query costs two window estimates per candidate (2 probes per candidate
// edge, 2 or 2n per candidate vertex depending on direction), a
// heavy_hitters query one (1 or n per candidate) — so an analytics item
// counts what it plans only once Fill has given it its candidates. Invalid
// queries plan nothing and count 0 (the executor rejects them before
// expansion), so they can never push a batch over an admission budget.
// Admission layers use this to bound a batch's total work up front.
func (q Query) ProbeCount(n int) int {
	if q.Validate() != nil {
		return 0
	}
	switch q.Kind {
	case KindEdge, KindVertexOut:
		return 1
	case KindVertexIn:
		return n
	case KindPath:
		return len(q.Path) - 1
	case KindSubgraph:
		return len(q.Edges)
	case KindDeltaVertex, KindBurst:
		return 2 * q.fanout(n) * len(q.Candidates)
	case KindDeltaEdge:
		return 2 * len(q.Edges)
	case KindHeavyHitters:
		return q.fanout(n) * len(q.Candidates)
	}
	return 0
}

// in reports whether the analytics kind q ranks in-weights; burst ranks
// out-weight whatever its Dir.
func (q Query) in() bool { return q.Dir == DirIn && q.Kind != KindBurst }

// fanout is how many probes one candidate window of q costs on n shards:
// one in the owner's shard for out-weight, one per shard for in-weight.
func (q Query) fanout(n int) int {
	if q.in() {
		return n
	}
	return 1
}

// epochs is how many current-epoch lengths burst's baseline window spans,
// at least 1. Lengths are taken in uint64, where no window overflows.
func (q Query) epochs() int64 {
	base, cur := uint64(q.Te-q.Ts)+1, uint64(q.Te2-q.Ts2)+1
	if cur == 0 || base/cur == 0 {
		return 1
	}
	return int64(min(base/cur, math.MaxInt64))
}
