// Package gss implements GSS (Gou, Zou, Zhao, Yang — ICDE 2019), the
// fingerprint-based graph stream sketch that Horae builds its layers on
// (paper Fig. 4): a single d×d matrix whose cells store fingerprinted
// edges, candidate placement sequences ("square hashing", realized here as
// the same invertible linear-congruential sequences HIGGS uses, with the
// chosen index recorded per cell), and an exact adjacency buffer for edges
// that cannot be placed.
//
// The matrix and the exact store are exported: they are the kernel Auxo's
// prefix-embedded tree is built from (DESIGN.md §4). GSS summarizes a
// whole stream without temporal information; Horae's time-prefix layers
// key it with (vertex, time-block) pairs to add temporal support.
package gss

import (
	"fmt"

	"higgs/internal/hashing"
)

// Config sizes a GSS sketch.
type Config struct {
	D     uint32 // matrix dimension; power of two
	FBits uint   // fingerprint bits; 1..32. Z = D·2^FBits is the hash range.
	Maps  int    // candidate positions per vertex; 1..16, ≤ D
	// MaxBuffer bounds the exact adjacency buffer (0 = unbounded). Once
	// full, further unplaceable edges degrade to a coarse per-address-pair
	// count with no fingerprints — the memory-capped operating regime in
	// which GSS-based structures exhibit their published accuracy loss.
	// The fallback only ever over-counts, preserving one-sided error.
	MaxBuffer int
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case !hashing.IsPow2(c.D):
		return fmt.Errorf("gss: D = %d is not a power of two", c.D)
	case c.FBits < 1 || c.FBits > 32:
		return fmt.Errorf("gss: FBits = %d, need 1..32", c.FBits)
	case c.Maps < 1 || c.Maps > 16:
		return fmt.Errorf("gss: Maps = %d, need 1..16", c.Maps)
	case uint32(c.Maps) > c.D:
		return fmt.Errorf("gss: Maps = %d exceeds D = %d", c.Maps, c.D)
	default:
		return nil
	}
}

// Key is an edge's hash coordinates: each endpoint's fingerprint and
// matrix address.
type Key struct{ FpS, AS, FpD, AD uint32 }

// NewKey splits two pre-hashed endpoint keys into an edge's coordinates.
func NewKey(hs, hd uint64, fbits uint, d uint32) Key {
	fpS, aS := hashing.Split(hs, fbits, d)
	fpD, aD := hashing.Split(hd, fbits, d)
	return Key{fpS, aS, fpD, aD}
}

// cell is one matrix slot: a fingerprinted edge and its placement index.
type cell struct {
	fpS, fpD uint32
	w        int64
	idx      uint8
	used     bool
}

// Matrix is the square-hashing matrix. An edge's Maps×Maps candidates are
// the cells (row i, column j) of its source's and destination's LCG
// address sequences; a cell records the pair as idx = i<<4 | j, so a row or
// column scan counts only the cells a vertex placed through that very
// candidate.
type Matrix struct {
	d     int
	maps  int
	lcg   hashing.LCG
	cells []cell
}

// NewMatrix returns an empty d×d matrix with maps candidates per endpoint;
// d must be a power of two.
func NewMatrix(d uint32, maps int) Matrix {
	return Matrix{d: int(d), maps: maps, lcg: hashing.MustLCG(d), cells: make([]cell, int(d)*int(d))}
}

// find walks k's candidates row-major and returns the first cell holding
// k. When none does it returns nil, or, with place set, the first free
// candidate, now holding k at weight 0 (nil if every candidate holds
// another edge). Placing only after a walk found no match keeps an edge in
// at most one cell.
func (m *Matrix) find(k Key, place bool) *cell {
	var (
		free *cell
		tag  uint8
	)
	row, d, maps := k.AS, m.d, m.maps
	for i := 0; i < maps; i++ {
		col := k.AD
		for j := 0; j < maps; j++ {
			c := &m.cells[int(row)*d+int(col)]
			if !c.used {
				if free == nil {
					free, tag = c, uint8(i<<4|j)
				}
			} else if c.fpS == k.FpS && c.fpD == k.FpD && c.idx == uint8(i<<4|j) {
				return c
			}
			col = m.lcg.Next(col)
		}
		row = m.lcg.Next(row)
	}
	if !place || free == nil {
		return nil
	}
	*free = cell{fpS: k.FpS, fpD: k.FpD, idx: tag, used: true}
	return free
}

// Add adds w to k's cell, placing k in its first free candidate when no
// cell holds it yet. It reports false, changing nothing, when every
// candidate holds another edge.
func (m *Matrix) Add(k Key, w int64) bool {
	c := m.find(k, true)
	if c == nil {
		return false
	}
	c.w += w
	return true
}

// Sub subtracts w from k's cell, reporting whether one holds k.
func (m *Matrix) Sub(k Key, w int64) bool {
	c := m.find(k, false)
	if c == nil {
		return false
	}
	c.w -= w
	return true
}

// Edge returns the weight of k's cell, 0 when none holds k.
func (m *Matrix) Edge(k Key) int64 {
	if c := m.find(k, false); c != nil {
		return c.w
	}
	return 0
}

// Row sums the cells source fp@addr placed: those in its candidate rows
// holding fp under that row's index.
func (m *Matrix) Row(fp, addr uint32) int64 {
	var sum int64
	row, d := addr, m.d
	for i := 0; i < m.maps; i++ {
		cells := m.cells[int(row)*d : (int(row)+1)*d]
		for k := range cells {
			c := &cells[k]
			if c.used && c.fpS == fp && int(c.idx>>4) == i {
				sum += c.w
			}
		}
		row = m.lcg.Next(row)
	}
	return sum
}

// Col sums the cells destination fp@addr placed.
func (m *Matrix) Col(fp, addr uint32) int64 {
	var sum int64
	col, d := addr, m.d
	for j := 0; j < m.maps; j++ {
		for r := 0; r < d; r++ {
			c := &m.cells[r*d+int(col)]
			if c.used && c.fpD == fp && int(c.idx&0xf) == j {
				sum += c.w
			}
		}
		col = m.lcg.Next(col)
	}
	return sum
}

// SpaceBits returns the packed size of every cell when each stores fpBits
// of fingerprint: those, the index pair and a 64-bit weight.
func (m *Matrix) SpaceBits(fpBits int64) int64 {
	return int64(len(m.cells)) * (fpBits + int64(hashing.IndexPairBits(m.maps)) + 64)
}

// half is one endpoint's coordinates.
type half struct{ fp, addr uint32 }

// Store holds edges exactly: weights by full key, plus per-source and
// per-destination sums so a vertex query reads one entry. The zero value
// is empty and ready to use.
type Store struct {
	edges   map[Key]int64
	out, in map[half]int64
}

// Add adds w under k and reports true, unless k is new and the store
// already holds limit keys (limit > 0).
func (s *Store) Add(k Key, w int64, limit int) bool {
	if limit > 0 && len(s.edges) >= limit {
		if _, ok := s.edges[k]; !ok {
			return false
		}
	}
	if s.edges == nil {
		s.edges, s.out, s.in = make(map[Key]int64), make(map[half]int64), make(map[half]int64)
	}
	s.edges[k] += w
	s.out[half{k.FpS, k.AS}] += w
	s.in[half{k.FpD, k.AD}] += w
	return true
}

// Sub subtracts w from k, reporting whether the store holds k.
func (s *Store) Sub(k Key, w int64) bool {
	if _, ok := s.edges[k]; !ok {
		return false
	}
	s.edges[k] -= w
	s.out[half{k.FpS, k.AS}] -= w
	s.in[half{k.FpD, k.AD}] -= w
	return true
}

// Edge returns k's weight.
func (s *Store) Edge(k Key) int64 { return s.edges[k] }

// Out returns the summed weight of source fp@addr's edges.
func (s *Store) Out(fp, addr uint32) int64 { return s.out[half{fp, addr}] }

// In returns the summed weight of destination fp@addr's edges.
func (s *Store) In(fp, addr uint32) int64 { return s.in[half{fp, addr}] }

// SpaceBits returns the packed size of the stored edges at full key plus
// weight width: two fingerprints of fbits, two addresses into a d-wide
// matrix, a 64-bit weight.
func (s *Store) SpaceBits(fbits uint, d uint32) int64 {
	return int64(len(s.edges)) * (2*int64(fbits) + 2*int64(hashing.Log2(d)) + 64)
}

// Sketch is a GSS sketch.
type Sketch struct {
	cfg    Config
	m      Matrix
	buffer Store // exact adjacency buffer
	// The fingerprint-free fallback past MaxBuffer, by address pair and by
	// single address.
	coarse              map[[2]uint32]int64
	coarseOut, coarseIn map[uint32]int64
}

// New returns an empty GSS sketch.
func New(cfg Config) (*Sketch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sketch{
		cfg:       cfg,
		m:         NewMatrix(cfg.D, cfg.Maps),
		coarse:    make(map[[2]uint32]int64),
		coarseOut: make(map[uint32]int64),
		coarseIn:  make(map[uint32]int64),
	}, nil
}

func (s *Sketch) key(hs, hd uint64) Key { return NewKey(hs, hd, s.cfg.FBits, s.cfg.D) }

// AddHashed adds weight w for an edge identified by pre-hashed endpoint
// keys (Horae passes Mix2(vertex, block) values here).
func (s *Sketch) AddHashed(hs, hd uint64, w int64) {
	k := s.key(hs, hd)
	if !s.m.Add(k, w) && !s.buffer.Add(k, w, s.cfg.MaxBuffer) {
		s.coarse[[2]uint32{k.AS, k.AD}] += w
		s.coarseOut[k.AS] += w
		s.coarseIn[k.AD] += w
	}
}

// SubHashed subtracts weight w from the edge identified by pre-hashed
// keys, reporting whether a matching entry was found.
func (s *Sketch) SubHashed(hs, hd uint64, w int64) bool {
	k := s.key(hs, hd)
	if s.m.Sub(k, w) || s.buffer.Sub(k, w) {
		return true
	}
	a := [2]uint32{k.AS, k.AD}
	if _, ok := s.coarse[a]; !ok {
		return false
	}
	s.coarse[a] -= w
	s.coarseOut[k.AS] -= w
	s.coarseIn[k.AD] -= w
	return true
}

// EdgeWeightHashed estimates the whole-stream aggregated weight of the
// edge identified by pre-hashed keys.
func (s *Sketch) EdgeWeightHashed(hs, hd uint64) int64 {
	k := s.key(hs, hd)
	return s.m.Edge(k) + s.buffer.Edge(k) + s.coarse[[2]uint32{k.AS, k.AD}]
}

// VertexOutHashed estimates the whole-stream out-weight of a pre-hashed
// vertex key.
func (s *Sketch) VertexOutHashed(hv uint64) int64 {
	fp, addr := hashing.Split(hv, s.cfg.FBits, s.cfg.D)
	return s.m.Row(fp, addr) + s.buffer.Out(fp, addr) + s.coarseOut[addr]
}

// VertexInHashed estimates the whole-stream in-weight of a pre-hashed
// vertex key.
func (s *Sketch) VertexInHashed(hv uint64) int64 {
	fp, addr := hashing.Split(hv, s.cfg.FBits, s.cfg.D)
	return s.m.Col(fp, addr) + s.buffer.In(fp, addr) + s.coarseIn[addr]
}

// SpaceBytes returns the packed structural size: every cell at
// 2·FBits + idx + 64 bits, plus buffered edges at full key + weight width,
// plus coarse slots at address pair + weight width.
func (s *Sketch) SpaceBytes() int64 {
	coarseBits := int64(len(s.coarse)) * (2*int64(hashing.Log2(s.cfg.D)) + 64)
	return (s.m.SpaceBits(2*int64(s.cfg.FBits)) + s.buffer.SpaceBits(s.cfg.FBits, s.cfg.D) + coarseBits + 7) / 8
}
