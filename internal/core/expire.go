package core

// Expire drops every subtree whose entire time range lies before the
// cutoff and returns the number of leaves reclaimed. This turns a HIGGS
// summary into a sliding-window summary (the windowed operation mode the
// paper's related work addresses with hopping sketches): periodically
// expiring `now − W` keeps memory proportional to the live window while
// every answer over a window inside [cutoff, now] stays what it was before
// the expire: range decomposition never descends into dropped subtrees, and
// no surviving aggregate holds a dropped child's weight.
//
// A node that straddles the cutoff keeps its surviving children, and a leaf
// is kept whole (some of its entries may predate the cutoff), so windows
// that reach before the cutoff can still read expired weight. Every closed
// node whose subtree lost a child has its aggregate released, not rebuilt:
// the next read that needs it builds it from the surviving children, and
// one that expires unread is never built.
//
// Dropped subtrees are recycled in place: their leaf slabs go back to the
// Summary's pool and their arena slots onto the free lists, so new leaves
// reuse the memory of the ones just dropped. A dropped or released
// aggregate is frozen, sized to its entries, and its arrays go to the GC:
// the pool holds leaf and overflow-block slabs only.
//
// Expire must not run concurrently with inserts or queries.
func (s *Summary) Expire(cutoff int64) (leavesDropped int) {
	if s.root == nil {
		return 0
	}
	dropped := s.expireNode(s.root, cutoff)
	// The root may have degenerated to a single-child chain; keep the
	// structure as-is (filler chains are normal in HIGGS) but make sure
	// the spine still points at live nodes.
	if !s.finalized {
		s.rebuildSpine()
	}
	s.leaves -= dropped
	return dropped
}

// expireNode removes fully expired children of n recursively and returns
// the number of leaves dropped. n itself is never dropped (the caller owns
// that decision; the root always survives). If anything below n was
// dropped, n's aggregate is released.
func (s *Summary) expireNode(n *node, cutoff int64) int {
	if n.level == 1 {
		return 0
	}
	kids := s.ar.kidBlock(n.kidBase)[:n.nKids]
	dropped := 0
	keep := 0
	var drops []nodeID
	for _, raw := range kids {
		id := nodeID(raw)
		c := s.ar.node(id)
		// Only closed nodes can be fully expired; the open spine is the
		// newest data by construction.
		if c.closed && c.lastT < cutoff {
			dropped += s.countLeaves(c)
			drops = append(drops, id)
			continue
		}
		if c.firstT < cutoff {
			dropped += s.expireNode(c, cutoff)
		}
		kids[keep] = raw
		keep++
	}
	// Never leave a non-leaf childless: retain the youngest child even if
	// expired, so the tree stays navigable.
	if keep == 0 {
		last := drops[len(drops)-1]
		drops = drops[:len(drops)-1]
		kids[0] = int32(last)
		keep = 1
		dropped -= s.countLeaves(s.ar.node(last))
	}
	n.nKids = int32(keep)
	for _, id := range drops {
		s.releaseSubtree(id)
	}
	if dropped > 0 {
		n.unseal()
		n.firstT = s.ar.node(nodeID(kids[0])).firstT
	}
	return dropped
}

// releaseSubtree releases every matrix of the subtree — the pool parks the
// timed slabs of leaves and overflow blocks, frozen aggregates go to the
// GC — and every node and child block to the arena free lists. The caller
// must guarantee exclusivity (no concurrent queries).
func (s *Summary) releaseSubtree(id nodeID) {
	n := s.ar.node(id)
	if n.level > 1 {
		for _, kid := range s.ar.children(n) {
			s.releaseSubtree(nodeID(kid))
		}
		s.ar.freeKids(n.kidBase)
	}
	if n.mat != nil {
		n.mat.Release(s.pool)
	}
	for _, ob := range n.obs {
		ob.Release(s.pool)
	}
	s.ar.freeNode(id)
}

func (s *Summary) countLeaves(n *node) int {
	if n.level == 1 {
		return 1
	}
	total := 0
	for _, id := range s.ar.children(n) {
		total += s.countLeaves(s.ar.node(nodeID(id)))
	}
	return total
}
