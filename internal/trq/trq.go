// Package trq defines the temporal-range-query interface every graph
// stream summary in this repository implements (paper Def. 2), generic
// evaluation of the composed path and subgraph queries, and the dyadic
// range decomposition shared by the Horae-style baselines.
package trq

import "higgs/internal/stream"

// Summary is a graph stream summary supporting temporal range queries.
// All implementations over-estimate only: query results are upper bounds
// on the truth.
type Summary interface {
	// Name identifies the structure in benchmark output.
	Name() string
	// Insert adds one stream item; timestamps must be non-decreasing.
	Insert(e stream.Edge)
	// EdgeWeight estimates the aggregated weight of edge (s→d) in [ts, te].
	EdgeWeight(s, d uint64, ts, te int64) int64
	// VertexOut estimates the aggregated weight of v's outgoing edges in [ts, te].
	VertexOut(v uint64, ts, te int64) int64
	// VertexIn estimates the aggregated weight of v's incoming edges in [ts, te].
	VertexIn(v uint64, ts, te int64) int64
	// SpaceBytes returns the packed structural size (DESIGN.md §7).
	SpaceBytes() int64
}

// Deleter is implemented by summaries supporting item deletion.
type Deleter interface {
	// Delete removes one previously inserted item, reporting success.
	Delete(e stream.Edge) bool
}

// Finalizer is implemented by summaries that benefit from an explicit
// end-of-stream signal (HIGGS seals its open spine).
type Finalizer interface{ Finalize() }

// PathWeight evaluates a path query on any summary as the sum of its edge
// queries (paper §III).
func PathWeight(s Summary, path []uint64, ts, te int64) int64 {
	var sum int64
	for i := 0; i+1 < len(path); i++ {
		sum += s.EdgeWeight(path[i], path[i+1], ts, te)
	}
	return sum
}

// SubgraphWeight evaluates a subgraph query on any summary as the sum of
// its edge queries.
func SubgraphWeight(s Summary, edges [][2]uint64, ts, te int64) int64 {
	var sum int64
	for _, e := range edges {
		sum += s.EdgeWeight(e[0], e[1], ts, te)
	}
	return sum
}

// Finalize signals end-of-stream if the summary supports it.
func Finalize(s Summary) {
	if f, ok := s.(Finalizer); ok {
		f.Finalize()
	}
}
