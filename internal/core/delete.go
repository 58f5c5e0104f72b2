package core

import (
	"higgs/internal/matrix"
	"higgs/internal/stream"
)

// Delete removes weight e.W of edge (e.S, e.D) recorded at time e.T. It
// locates the leaf entry holding that exact item, decrements it, and then
// decrements the matching aggregated entries in every sealed ancestor, so
// subsequent queries at any level reflect the removal. An ancestor still
// pending is left alone: its seal builds from the decremented leaf. It
// reports whether a matching leaf entry was found; deleting an item that
// was never inserted is a no-op returning false.
//
// Delete must not run concurrently with queries or inserts.
func (s *Summary) Delete(e stream.Edge) bool {
	if s.root == nil {
		return false
	}
	hs, hd := s.h.Hash(e.S), s.h.Hash(e.D)
	return s.deleteRec(s.root, e, hs, hd)
}

func (s *Summary) deleteRec(n *node, e stream.Edge, hs, hd uint64) bool {
	if n.firstT > e.T || n.last(s.lastT) < e.T {
		return false
	}
	if n.level == 1 {
		return s.deleteFromLeaf(n, e, hs, hd)
	}
	// Search newest-first: streams revisit recent data most often, and
	// duplicate boundary timestamps (possible with overflow blocks
	// disabled) live in the newer sibling.
	kids := s.ar.children(n)
	for i := len(kids) - 1; i >= 0; i-- {
		if s.deleteRec(s.ar.node(nodeID(kids[i])), e, hs, hd) {
			if n.sealed() {
				fpS, baseS := split(hs, n.mat)
				fpD, baseD := split(hd, n.mat)
				n.mat.Sub(fpS, baseS, fpD, baseD, 0, e.W)
			}
			return true
		}
	}
	return false
}

func (s *Summary) deleteFromLeaf(n *node, e stream.Edge, hs, hd uint64) bool {
	try := func(m *matrix.Matrix) bool {
		off := e.T - m.StartT()
		if off < 0 || off > matrix.MaxOffset() {
			return false
		}
		fpS, baseS := split(hs, m)
		fpD, baseD := split(hd, m)
		return m.Sub(fpS, baseS, fpD, baseD, uint32(off), e.W)
	}
	if try(n.mat) {
		return true
	}
	for _, ob := range n.obs {
		if try(ob) {
			return true
		}
	}
	return false
}
