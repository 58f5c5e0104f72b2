package core

import (
	"math"

	"higgs/internal/matrix"
	"higgs/internal/query"
)

// Answer is what one probe walk reports: its one-sided estimate and the
// number of matrices the range decomposition visited — aggregates, leaves
// and overflow blocks alike (the paper bounds it by 2(θ−1)·log_θ(Lq/L′)).
type Answer struct {
	Weight   int64
	Matrices int
}

// walkState is one probe's state on its way down the tree: the op, the hashed
// endpoints (hd only for query.OpEdge), the window and the running answer.
type walkState struct {
	op     query.Op
	hs, hd uint64
	ts, te int64
	ans    Answer
}

// Probe answers one single-shard primitive of the query planner over
// [p.Ts, p.Te]: the weight of edge S→D (query.OpEdge), or S's out- or
// in-weight (query.OpVertexOut, query.OpVertexIn). Every estimate is
// one-sided: it never undercounts the truth (paper §V-D).
func (s *Summary) Probe(p query.Probe) Answer {
	if s.root == nil || p.Ts > p.Te {
		return Answer{}
	}
	w := walkState{op: p.Op, hs: s.h.Hash(p.S), ts: p.Ts, te: p.Te}
	if p.Op == query.OpEdge {
		w.hd = s.h.Hash(p.D)
	}
	s.walk(s.root, &w)
	return w.ans
}

// walk performs the boundary search (paper Algorithm 3) as a recursive
// range decomposition over the tree: a closed node fully inside [ts, te]
// contributes its aggregate matrix; partially covered or still-open nodes
// recurse into children; leaves contribute their matrices (and overflow
// blocks) with an entry-level offset filter at the range fringes.
func (s *Summary) walk(n *node, w *walkState) {
	last := n.last(s.lastT)
	if n.firstT > w.te || last < w.ts {
		return
	}
	whole := w.ts <= n.firstT && last <= w.te
	if n.level > 1 {
		if whole && n.closed {
			s.sealNow(n)
			w.visit(n.mat, true)
			return
		}
		for _, id := range s.ar.children(n) {
			s.walk(s.ar.node(nodeID(id)), w)
		}
		return
	}
	w.visit(n.mat, whole)
	for _, ob := range n.obs {
		w.visit(ob, whole)
	}
}

// visit adds matrix m's share to the answer. The op is switched on here
// and nowhere else. A wholly covered matrix needs no per-entry timestamp
// check; a fringe leaf filters its entries to the window's offsets.
func (w *walkState) visit(m *matrix.Matrix, whole bool) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if !whole {
		lo, hi = w.ts-m.StartT(), w.te-m.StartT()
	}
	w.ans.Matrices++
	fp, base := split(w.hs, m)
	switch w.op {
	case query.OpEdge:
		fpD, baseD := split(w.hd, m)
		w.ans.Weight += m.EdgeSum(fp, base, fpD, baseD, lo, hi)
	case query.OpVertexOut:
		w.ans.Weight += m.RowSum(fp, base, lo, hi)
	case query.OpVertexIn:
		w.ans.Weight += m.ColSum(fp, base, lo, hi)
	}
}

// EdgeWeight returns the estimated aggregated weight of edge (sv → dv)
// within [ts, te] (TRQ edge-query primitive, paper Def. 2).
func (s *Summary) EdgeWeight(sv, dv uint64, ts, te int64) int64 {
	return s.Probe(query.Probe{Op: query.OpEdge, S: sv, D: dv, Ts: ts, Te: te}).Weight
}

// VertexOut returns the estimated aggregated weight of v's outgoing edges
// within [ts, te] (TRQ vertex-query primitive).
func (s *Summary) VertexOut(v uint64, ts, te int64) int64 {
	return s.Probe(query.Probe{Op: query.OpVertexOut, S: v, Ts: ts, Te: te}).Weight
}

// VertexIn returns the estimated aggregated weight of v's incoming edges
// within [ts, te].
func (s *Summary) VertexIn(v uint64, ts, te int64) int64 {
	return s.Probe(query.Probe{Op: query.OpVertexIn, S: v, Ts: ts, Te: te}).Weight
}

// PathWeight returns the estimated sum of edge weights along the vertex
// path within [ts, te], the aggregation the paper uses for path queries.
func (s *Summary) PathWeight(path []uint64, ts, te int64) int64 {
	var sum int64
	for i := 0; i+1 < len(path); i++ {
		sum += s.EdgeWeight(path[i], path[i+1], ts, te)
	}
	return sum
}

// SubgraphWeight returns the estimated total weight of the given edge set
// within [ts, te].
func (s *Summary) SubgraphWeight(edges [][2]uint64, ts, te int64) int64 {
	var sum int64
	for _, e := range edges {
		sum += s.EdgeWeight(e[0], e[1], ts, te)
	}
	return sum
}
