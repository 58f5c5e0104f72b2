// Package auxo implements Auxo (Jiang, Chen, Jin — VLDB 2023), the scalable
// graph stream sketch organized as a prefix-embedded tree (PET): a tree of
// GSS matrices (gss.Matrix) in which an edge that cannot be placed at a
// node descends to the child selected by the next bit of its fingerprint.
// Bits consumed by the path are dropped from the stored fingerprint
// ("prefix embedding"), and nodes are allocated lazily so capacity grows
// proportionally to the inserted volume ("proportional incremental").
//
// The descent alternates between source and destination fingerprint bits,
// so an out-vertex query follows a single branch on even levels and both
// branches on odd levels (and symmetrically for in-vertex queries) —
// reproducing Auxo's published trade-off of scalable inserts against
// subtree-wide vertex scans.
//
// Auxo is non-temporal. Horae's time-prefix layering over Auxo trees is
// the paper's AuxoTime baseline (§VI-A), built in internal/bench.
package auxo

import (
	"fmt"

	"higgs/internal/gss"
	"higgs/internal/hashing"
)

// Config sizes an Auxo sketch.
type Config struct {
	D     uint32 // per-node matrix dimension; power of two
	FBits uint   // fingerprint bits at the root; 2..32
	Maps  int    // candidate positions per vertex; 1..16, ≤ D
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case !hashing.IsPow2(c.D):
		return fmt.Errorf("auxo: D = %d is not a power of two", c.D)
	case c.FBits < 2 || c.FBits > 32:
		return fmt.Errorf("auxo: FBits = %d, need 2..32", c.FBits)
	case c.Maps < 1 || c.Maps > 16:
		return fmt.Errorf("auxo: Maps = %d, need 1..16", c.Maps)
	case uint32(c.Maps) > c.D:
		return fmt.Errorf("auxo: Maps = %d exceeds D = %d", c.Maps, c.D)
	default:
		return nil
	}
}

// pnode is one PET node. Children are created lazily.
type pnode struct {
	m        gss.Matrix
	children [2]*pnode
	level    int
}

// Sketch is an Auxo sketch.
type Sketch struct {
	cfg  Config
	root *pnode
	deep gss.Store // exact store for fingerprint-exhausted edges
}

// New returns an empty Auxo sketch.
func New(cfg Config) (*Sketch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sketch{cfg: cfg, root: &pnode{m: gss.NewMatrix(cfg.D, cfg.Maps)}}, nil
}

// The descent: level ℓ consumes bit ℓ/2 of the source fingerprint when ℓ
// is even and of the destination fingerprint when ℓ is odd, so a node at
// level ℓ stores the source fingerprint shifted right by (ℓ+1)/2 and the
// destination's by ℓ/2. Both are used up after level 2·FBits − 1, whose
// nodes therefore have no children.

// bit returns the prefix bit an edge's walk consumes at level.
func bit(k gss.Key, level int) int {
	if level%2 == 0 {
		return int(k.FpS >> (level / 2) & 1)
	}
	return int(k.FpD >> (level / 2) & 1)
}

// at returns k as a node at level stores it.
func at(k gss.Key, level int) gss.Key {
	k.FpS >>= (level + 1) / 2
	k.FpD >>= level / 2
	return k
}

// AddHashed adds weight w for an edge identified by pre-hashed keys. Once
// both fingerprints are fully embedded in the path, a node could no longer
// distinguish edges at all, so such edges go to the exact deep store
// instead.
func (s *Sketch) AddHashed(hs, hd uint64, w int64) {
	k := gss.NewKey(hs, hd, s.cfg.FBits, s.cfg.D)
	for n := s.root; !n.m.Add(at(k, n.level), w); {
		if n.level+1 == 2*int(s.cfg.FBits) {
			s.deep.Add(k, w, 0)
			return
		}
		c := &n.children[bit(k, n.level)]
		if *c == nil {
			*c = &pnode{m: gss.NewMatrix(s.cfg.D, s.cfg.Maps), level: n.level + 1}
		}
		n = *c
	}
}

// SubHashed subtracts weight w from the edge identified by pre-hashed
// keys, reporting whether a matching entry was found.
func (s *Sketch) SubHashed(hs, hd uint64, w int64) bool {
	k := gss.NewKey(hs, hd, s.cfg.FBits, s.cfg.D)
	for n := s.root; n != nil; n = n.children[bit(k, n.level)] {
		if n.m.Sub(at(k, n.level), w) {
			return true
		}
	}
	return s.deep.Sub(k, w)
}

// EdgeWeightHashed estimates the whole-stream weight of an edge identified
// by pre-hashed keys: matches are summed along the edge's PET path (an
// edge lives at exactly one level, but fingerprint collisions along the
// path only over-count, keeping the error one-sided).
func (s *Sketch) EdgeWeightHashed(hs, hd uint64) int64 {
	k := gss.NewKey(hs, hd, s.cfg.FBits, s.cfg.D)
	var sum int64
	for n := s.root; n != nil; n = n.children[bit(k, n.level)] {
		sum += n.m.Edge(at(k, n.level))
	}
	return sum + s.deep.Edge(k)
}

// VertexOutHashed estimates the whole-stream out-weight of a pre-hashed
// vertex key by scanning its row in every PET node consistent with the
// source fingerprint prefix.
func (s *Sketch) VertexOutHashed(hv uint64) int64 {
	fp, addr := hashing.Split(hv, s.cfg.FBits, s.cfg.D)
	return rows(s.root, fp, addr) + s.deep.Out(fp, addr)
}

// rows sums source fp@addr's row scans over n's subtree: an even level
// consumes a source bit, which picks one child; an odd level consumes the
// unknown destination's, so both children are possible.
func rows(n *pnode, fp, addr uint32) int64 {
	if n == nil {
		return 0
	}
	sum := n.m.Row(fp>>((n.level+1)/2), addr)
	if n.level%2 == 0 {
		return sum + rows(n.children[fp>>(n.level/2)&1], fp, addr)
	}
	return sum + rows(n.children[0], fp, addr) + rows(n.children[1], fp, addr)
}

// VertexInHashed estimates the whole-stream in-weight of a pre-hashed
// vertex key.
func (s *Sketch) VertexInHashed(hv uint64) int64 {
	fp, addr := hashing.Split(hv, s.cfg.FBits, s.cfg.D)
	return cols(s.root, fp, addr) + s.deep.In(fp, addr)
}

// cols is rows for a destination: odd levels pick one child.
func cols(n *pnode, fp, addr uint32) int64 {
	if n == nil {
		return 0
	}
	sum := n.m.Col(fp>>(n.level/2), addr)
	if n.level%2 == 1 {
		return sum + cols(n.children[fp>>(n.level/2)&1], fp, addr)
	}
	return sum + cols(n.children[0], fp, addr) + cols(n.children[1], fp, addr)
}

// SpaceBytes returns the packed structural size. Deeper nodes store fewer
// fingerprint bits (prefix embedding); each level ends one bit narrower
// than its parent.
func (s *Sketch) SpaceBytes() int64 {
	return (s.root.spaceBits(s.cfg.FBits) + s.deep.SpaceBits(s.cfg.FBits, s.cfg.D) + 7) / 8
}

func (n *pnode) spaceBits(fbits uint) int64 {
	if n == nil {
		return 0
	}
	return n.m.SpaceBits(max(2, 2*int64(fbits)-int64(n.level))) +
		n.children[0].spaceBits(fbits) + n.children[1].spaceBits(fbits)
}
