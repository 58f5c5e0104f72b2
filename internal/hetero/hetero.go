// Package hetero extends HIGGS to heterogeneous graph streams — the first
// future-work direction in the paper's conclusion (§VII): edges carry a
// relation label (e.g., "follows", "pays", "replies-to") and queries can be
// restricted to one relation.
//
// The extension composes two HIGGS summaries: one over the unlabeled
// stream (answering the standard label-agnostic TRQ primitives) and one
// whose vertex keys are mixed with the edge label, so that a
// label-restricted query is an ordinary query under the mixed keys. Both
// inherit HIGGS's one-sided error guarantee; space is twice a single
// summary.
package hetero

import (
	"fmt"

	"higgs/internal/core"
	"higgs/internal/hashing"
	"higgs/internal/stream"
)

// Edge is one labeled stream item: a directed edge S→D of relation Label
// carrying weight W at time T.
type Edge struct {
	S, D  uint64
	Label uint32
	W     int64
	T     int64
}

// Summary is a heterogeneous HIGGS summary.
type Summary struct {
	all     *core.Summary // label-agnostic view
	labeled *core.Summary // label-mixed view
}

// New returns an empty heterogeneous summary; both internal summaries use
// the given configuration.
func New(cfg core.Config) (*Summary, error) {
	all, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("hetero: %w", err)
	}
	lcfg := cfg
	lcfg.Seed = cfg.Seed ^ 0xa5a5a5a5a5a5a5a5
	labeled, err := core.New(lcfg)
	if err != nil {
		return nil, fmt.Errorf("hetero: %w", err)
	}
	return &Summary{all: all, labeled: labeled}, nil
}

// MustNew is New for configurations known to be valid; it panics otherwise.
func MustNew(cfg core.Config) *Summary {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// mix folds a relation label into a vertex key.
func mix(v uint64, label uint32) uint64 {
	return hashing.Mix2(v, uint64(label)+1)
}

// Insert adds one labeled stream item.
func (s *Summary) Insert(e Edge) {
	s.all.Insert(stream.Edge{S: e.S, D: e.D, W: e.W, T: e.T})
	s.labeled.Insert(stream.Edge{S: mix(e.S, e.Label), D: mix(e.D, e.Label), W: e.W, T: e.T})
}

// Delete removes one previously inserted labeled item.
func (s *Summary) Delete(e Edge) bool {
	a := s.all.Delete(stream.Edge{S: e.S, D: e.D, W: e.W, T: e.T})
	b := s.labeled.Delete(stream.Edge{S: mix(e.S, e.Label), D: mix(e.D, e.Label), W: e.W, T: e.T})
	return a && b
}

// EdgeWeight estimates the aggregated weight of edge (s→d) across all
// relations within [ts, te].
func (s *Summary) EdgeWeight(sv, dv uint64, ts, te int64) int64 {
	return s.all.EdgeWeight(sv, dv, ts, te)
}

// EdgeWeightLabeled estimates the aggregated weight of edge (s→d)
// restricted to one relation within [ts, te].
func (s *Summary) EdgeWeightLabeled(sv, dv uint64, label uint32, ts, te int64) int64 {
	return s.labeled.EdgeWeight(mix(sv, label), mix(dv, label), ts, te)
}

// VertexOut estimates v's out-weight across all relations within [ts, te].
func (s *Summary) VertexOut(v uint64, ts, te int64) int64 {
	return s.all.VertexOut(v, ts, te)
}

// VertexOutLabeled estimates v's out-weight restricted to one relation.
func (s *Summary) VertexOutLabeled(v uint64, label uint32, ts, te int64) int64 {
	return s.labeled.VertexOut(mix(v, label), ts, te)
}

// VertexIn estimates v's in-weight across all relations within [ts, te].
func (s *Summary) VertexIn(v uint64, ts, te int64) int64 {
	return s.all.VertexIn(v, ts, te)
}

// VertexInLabeled estimates v's in-weight restricted to one relation.
func (s *Summary) VertexInLabeled(v uint64, label uint32, ts, te int64) int64 {
	return s.labeled.VertexIn(mix(v, label), ts, te)
}

// PathWeightLabeled estimates the summed edge weights along a path where
// every hop must carry the given relation.
func (s *Summary) PathWeightLabeled(path []uint64, label uint32, ts, te int64) int64 {
	var sum int64
	for i := 0; i+1 < len(path); i++ {
		sum += s.EdgeWeightLabeled(path[i], path[i+1], label, ts, te)
	}
	return sum
}

// Finalize marks the end of the stream on both internal summaries.
func (s *Summary) Finalize() {
	s.all.Finalize()
	s.labeled.Finalize()
}

// SpaceBytes returns the combined packed size of both views.
func (s *Summary) SpaceBytes() int64 {
	return s.all.SpaceBytes() + s.labeled.SpaceBytes()
}

// Stats returns the statistics of the label-agnostic view (the labeled
// view has identical item counts and a similar shape).
func (s *Summary) Stats() core.Stats { return s.all.Stats() }
