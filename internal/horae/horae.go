// Package horae implements Horae (Chen et al., ICDE 2022), the
// state-of-the-art top-down, domain-based baseline the paper compares
// against, together with its compact variant Horae-cpt.
//
// Horae keeps one whole-stream sketch per dyadic time granularity: layer ℓ
// summarizes the stream keyed by (vertex, t >> ℓ) — the time-prefix
// encoding. A temporal range decomposes into at most 2·log2(L) aligned
// dyadic blocks, each answered by one layer lookup and summed. Every item
// is inserted into every stored layer, which is why Horae's space and
// insert costs grow with log(L) and why per-layer hash collisions
// accumulate across the decomposition — the drawbacks HIGGS's bottom-up
// hierarchy removes (paper §I).
//
// Horae-cpt stores only every second layer (the bottom layer always
// included): fewer updates and less space, but ranges decompose into more
// sub-queries (O(log² L) access behaviour reported in the paper).
//
// The per-layer sketch is pluggable through the Layer interface:
// internal/bench passes Auxo trees to NewWithLayers to realize the paper's
// AuxoTime baseline (§VI-A) on this exact structure.
package horae

import (
	"fmt"

	"higgs/internal/gss"
	"higgs/internal/hashing"
	"higgs/internal/stream"
	"higgs/internal/trq"
)

// Layer is the whole-stream sketch a layer is built from. Keys arrive
// pre-hashed: the layered structure mixes the vertex hash with the time
// block index before calling the layer.
type Layer interface {
	AddHashed(hs, hd uint64, w int64)
	SubHashed(hs, hd uint64, w int64) bool
	EdgeWeightHashed(hs, hd uint64) int64
	VertexOutHashed(hv uint64) int64
	VertexInHashed(hv uint64) int64
	SpaceBytes() int64
}

// Config sizes a Horae summary.
type Config struct {
	// MaxLevel is the top dyadic level: one block at MaxLevel spans
	// 2^MaxLevel time units. Use trq.LevelsForSpan to derive it from the
	// expected stream duration. 1..40.
	MaxLevel int
	// Compact selects the -cpt variant: only even layers are stored and
	// missing-layer blocks split into stored-layer blocks.
	Compact bool
	// Layer is the GSS geometry of each stored layer.
	Layer gss.Config
	// Seed seeds the vertex hasher shared by all layers.
	Seed uint64
}

// Summary is a Horae (or Horae-cpt, or AuxoTime via NewWithLayers) summary.
type Summary struct {
	name     string
	maxLevel int
	compact  bool
	h        hashing.Hasher
	layers   []Layer // indexed by level; nil when the level is not stored
	stored   []int   // stored level numbers, ascending
	items    int64
	lastT    int64
	started  bool
}

// New returns an empty Horae summary with GSS layers.
func New(cfg Config) (*Summary, error) {
	name := "Horae"
	if cfg.Compact {
		name = "Horae-cpt"
	}
	return NewWithLayers(name, cfg.MaxLevel, cfg.Compact, cfg.Seed, func() (Layer, error) { return gss.New(cfg.Layer) })
}

// NewWithLayers builds the layered structure over layers from newLayer,
// which is invoked once per stored level; maxLevel is Config.MaxLevel's,
// 1..40.
func NewWithLayers(name string, maxLevel int, compact bool, seed uint64, newLayer func() (Layer, error)) (*Summary, error) {
	if maxLevel < 1 || maxLevel > 40 {
		return nil, fmt.Errorf("horae: MaxLevel = %d, need 1..40", maxLevel)
	}
	s := &Summary{
		name:     name,
		maxLevel: maxLevel,
		compact:  compact,
		h:        hashing.NewHasher(seed),
		layers:   make([]Layer, maxLevel+1),
	}
	for l := 0; l <= maxLevel; l++ {
		if compact && !trq.EvenLevels(l) {
			continue
		}
		layer, err := newLayer()
		if err != nil {
			return nil, fmt.Errorf("horae: layer %d: %w", l, err)
		}
		s.layers[l] = layer
		s.stored = append(s.stored, l)
	}
	return s, nil
}

// Name identifies the structure in benchmark output.
func (s *Summary) Name() string { return s.name }

// allowed reports whether a level is stored.
func (s *Summary) allowed(l int) bool { return l >= 0 && l <= s.maxLevel && s.layers[l] != nil }

// key mixes a vertex hash with a time block index. The same block number
// recurs across levels, but every layer is its own sketch, queried only
// for blocks of its own level, so those keys never meet.
func key(hv uint64, block uint64) uint64 { return hashing.Mix2(hv, block) }

// Insert adds one stream item to every stored layer under its time-prefix
// key. Late timestamps are clamped to the newest one.
func (s *Summary) Insert(e stream.Edge) {
	if e.T < 0 {
		e.T = 0
	}
	if s.started && e.T < s.lastT {
		e.T = s.lastT
	}
	s.started = true
	s.lastT = e.T
	hs, hd := s.h.Hash(e.S), s.h.Hash(e.D)
	for _, l := range s.stored {
		block := uint64(e.T) >> l
		s.layers[l].AddHashed(key(hs, block), key(hd, block), e.W)
	}
	s.items++
}

// Delete removes one previously inserted item from every stored layer.
func (s *Summary) Delete(e stream.Edge) bool {
	if e.T < 0 {
		e.T = 0
	}
	hs, hd := s.h.Hash(e.S), s.h.Hash(e.D)
	any := false
	for _, l := range s.stored {
		block := uint64(e.T) >> l
		if s.layers[l].SubHashed(key(hs, block), key(hd, block), e.W) {
			any = true
		}
	}
	if any {
		s.items--
	}
	return any
}

// EdgeWeight estimates the aggregated weight of edge (s→d) within [ts, te]
// by summing the per-block layer estimates of the dyadic decomposition.
func (s *Summary) EdgeWeight(sv, dv uint64, ts, te int64) int64 {
	if ts > te {
		return 0
	}
	hs, hd := s.h.Hash(sv), s.h.Hash(dv)
	var sum int64
	for _, b := range trq.Decompose(ts, te, s.maxLevel, s.allowed) {
		sum += s.layers[b.Level].EdgeWeightHashed(key(hs, b.Index), key(hd, b.Index))
	}
	return sum
}

// VertexOut estimates the aggregated out-weight of v within [ts, te].
func (s *Summary) VertexOut(v uint64, ts, te int64) int64 {
	if ts > te {
		return 0
	}
	hv := s.h.Hash(v)
	var sum int64
	for _, b := range trq.Decompose(ts, te, s.maxLevel, s.allowed) {
		sum += s.layers[b.Level].VertexOutHashed(key(hv, b.Index))
	}
	return sum
}

// VertexIn estimates the aggregated in-weight of v within [ts, te].
func (s *Summary) VertexIn(v uint64, ts, te int64) int64 {
	if ts > te {
		return 0
	}
	hv := s.h.Hash(v)
	var sum int64
	for _, b := range trq.Decompose(ts, te, s.maxLevel, s.allowed) {
		sum += s.layers[b.Level].VertexInHashed(key(hv, b.Index))
	}
	return sum
}

// Items returns the number of inserted items.
func (s *Summary) Items() int64 { return s.items }

// SpaceBytes returns the packed structural size: the sum over stored
// layers.
func (s *Summary) SpaceBytes() int64 {
	var sum int64
	for _, l := range s.stored {
		sum += s.layers[l].SpaceBytes()
	}
	return sum
}
