package core

import (
	"fmt"

	"higgs/internal/hashing"
	"higgs/internal/matrix"
	"higgs/internal/stream"
)

// Summary is a HIGGS graph stream summary.
//
// Insert requires timestamps to be non-decreasing (graph streams arrive in
// time order); out-of-order items are clamped to the newest timestamp and
// counted in Stats().Clamped. A Summary is not safe for concurrent use by
// multiple goroutines, with one exception: queries may run concurrently with
// each other while nothing mutates the summary. A closed node seals on its
// first read, not when it closes (paper Algorithm 1; DESIGN.md §4): the
// reader that meets a pending aggregate builds it through the sealState
// latch, so concurrent readers may race on it safely, and an aggregate that
// expires before anything reads it is never built. Stats, AppendSnapshot
// and Finalize seal every closed node.
//
// All tree nodes live in an arena owned by the Summary (see arena.go) and
// leaf slabs draw from a pool that Expire refills, so steady-state ingest
// allocates nothing per edge; a seal builds its aggregate frozen, in working
// arrays shared across summaries, and allocates only the arrays it keeps.
type Summary struct {
	cfg Config
	rb  uint // R: fingerprint bits promoted per level
	h   hashing.Hasher

	ar   *arena
	pool *matrix.Pool

	root      *node
	rootID    nodeID
	spine     []*node // open path; spine[i] has level i+1, spine[0] = active leaf
	lastT     int64
	items     int64
	clamped   int64
	rejected  int64 // inserts after Finalize
	leaves    int
	obCount   int
	finalized bool
}

// New returns an empty HIGGS summary for the given configuration.
func New(cfg Config) (*Summary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Summary{
		cfg:  cfg,
		rb:   cfg.rbits(),
		h:    hashing.NewHasher(cfg.Seed),
		ar:   newArena(cfg.Theta),
		pool: matrix.NewPool(),
	}, nil
}

// MustNew is New for configurations known to be valid; it panics otherwise.
func MustNew(cfg Config) *Summary {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the summary's configuration.
func (s *Summary) Config() Config { return s.cfg }

// Name identifies the structure in benchmark output.
func (s *Summary) Name() string { return "HIGGS" }

// leafCfg returns the matrix configuration of leaf matrices.
func (s *Summary) leafCfg() matrix.Config {
	return matrix.Config{D: s.cfg.D1, B: s.cfg.B, Maps: s.cfg.Maps, FBits: s.cfg.F1, Timed: true}
}

// obCfg returns the matrix configuration of overflow blocks: a leaf's, with
// OBBucket entries per bucket.
func (s *Summary) obCfg() matrix.Config {
	c := s.leafCfg()
	c.B = s.cfg.OBBucket
	return c
}

// newLeaf allocates a leaf node anchored at time t.
func (s *Summary) newLeaf(t int64) (nodeID, *node) {
	m, err := matrix.NewIn(s.pool, s.leafCfg(), t)
	if err != nil {
		panic(fmt.Sprintf("core: leaf config invalid: %v", err)) // validated in New
	}
	s.leaves++
	id, n := s.ar.alloc()
	n.level = 1
	n.firstT, n.lastT = t, t
	n.mat = m
	return id, n
}

// split computes the fingerprint/address pair of a hash at the geometry of
// matrix m (paper Eq. 1 at the matrix's level).
func split(h uint64, m *matrix.Matrix) (fp, base uint32) {
	c := m.Cfg()
	return hashing.Split(h, c.FBits, c.D)
}

// Insert adds one stream item (paper Algorithm 1). Items arriving after
// Finalize are dropped and counted.
func (s *Summary) Insert(e stream.Edge) {
	if s.finalized {
		s.rejected++
		return
	}
	if s.root == nil {
		id, leaf := s.newLeaf(e.T)
		s.root, s.rootID = leaf, id
		s.spine = append(s.spine[:0], leaf)
		s.lastT = e.T
	}
	if e.T < s.lastT {
		s.clamped++
		e.T = s.lastT
	}
	s.lastT = e.T
	leaf := s.spine[0]
	hs, hd := s.h.Hash(e.S), s.h.Hash(e.D)
	fpS, baseS := split(hs, leaf.mat)
	fpD, baseD := split(hd, leaf.mat)

	off := e.T - leaf.mat.StartT()
	if off <= matrix.MaxOffset() && leaf.mat.Add(fpS, baseS, fpD, baseD, uint32(off), e.W) {
		leaf.lastT = e.T
		s.items++
		return
	}

	// Leaf matrix rejected the edge. Overflow block if the timestamp
	// matches the previous item's (paper §IV-C), otherwise open a new leaf
	// and propagate the timestamp upward.
	if s.cfg.OverflowBlocks && e.T == leaf.lastT && off <= matrix.MaxOffset() {
		if n := len(leaf.obs); n > 0 {
			ob := leaf.obs[n-1]
			if ob.Add(fpS, baseS, fpD, baseD, uint32(e.T-ob.StartT()), e.W) {
				s.items++
				return
			}
		}
		ob, err := matrix.NewIn(s.pool, s.obCfg(), e.T)
		if err != nil {
			panic(fmt.Sprintf("core: overflow block config invalid: %v", err))
		}
		ob.Add(fpS, baseS, fpD, baseD, 0, e.W) // empty matrix: cannot fail
		leaf.obs = append(leaf.obs, ob)
		s.obCount++
		s.items++
		return
	}

	leaf.closed = true
	nlID, nl := s.newLeaf(e.T)
	nl.mat.Add(fpS, baseS, fpD, baseD, 0, e.W) // empty matrix: cannot fail
	s.attach(nlID, nl)
	s.items++
}

// attach links a freshly opened node (a new leaf or a filler wrapping one)
// into the open spine, closing full ancestors and growing the root as
// needed — the upward timestamp transmission of Algorithm 1.
func (s *Summary) attach(childID nodeID, child *node) {
	for {
		parentIdx := int(child.level) // spine[i] has level i+1
		if parentIdx >= len(s.spine) {
			// The root itself is full: grow the tree by one level.
			oldRoot, oldRootID := s.root, s.rootID
			id, newRoot := s.ar.alloc()
			newRoot.level = child.level + 1
			newRoot.firstT = oldRoot.firstT
			newRoot.kidBase = s.ar.allocKids()
			blk := s.ar.kidBlock(newRoot.kidBase)
			blk[0], blk[1] = int32(oldRootID), int32(childID)
			newRoot.nKids = 2
			s.spine = append(s.spine, newRoot)
			s.root, s.rootID = newRoot, id
			s.setSpineBelow(child)
			return
		}
		parent := s.spine[parentIdx]
		if int(parent.nKids) < s.cfg.Theta {
			s.ar.kidBlock(parent.kidBase)[parent.nKids] = int32(childID)
			parent.nKids++
			s.setSpineBelow(child)
			return
		}
		// Parent is full: close it, then wrap the child in a filler node
		// (keeps all leaves on the bottom layer) and continue one level up.
		s.close(parent)
		fid, filler := s.ar.alloc()
		filler.level = parent.level
		filler.firstT = child.firstT
		filler.kidBase = s.ar.allocKids()
		s.ar.kidBlock(filler.kidBase)[0] = int32(childID)
		filler.nKids = 1
		s.spine[parentIdx] = filler
		childID, child = fid, filler
	}
}

// setSpineBelow repoints the open spine at and below child's level to the
// rightmost path of child's subtree.
func (s *Summary) setSpineBelow(child *node) {
	n := child
	for {
		s.spine[n.level-1] = n
		if n.level == 1 {
			return
		}
		kids := s.ar.children(n)
		n = s.ar.node(nodeID(kids[len(kids)-1]))
	}
}

// close freezes a full non-leaf node. Its aggregate stays pending until
// the first read that needs it.
func (s *Summary) close(n *node) {
	n.closed = true
	kids := s.ar.children(n)
	n.lastT = s.ar.node(nodeID(kids[len(kids)-1])).lastT
}

// Finalize marks the end of the stream: every node on the open spine is
// closed and all pending aggregates are built, so space accounting and
// whole-range queries see the complete l-layer structure. Further inserts
// are dropped (counted in Stats().Rejected). Finalize is idempotent.
func (s *Summary) Finalize() {
	if s.finalized {
		return
	}
	s.finalized = true
	for _, n := range s.spine {
		if n.level == 1 {
			n.closed = true
			continue
		}
		s.close(n)
	}
	if s.root != nil {
		s.sealNow(s.root) // seals the whole tree: a build forces its children
	}
}
