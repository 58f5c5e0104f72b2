package core

import "math"

// Stats reports structural statistics of a HIGGS summary. Space figures
// follow the repository-wide convention (DESIGN.md §7): SpaceBytes is the
// packed structural size the paper's space comparisons count, HeapBytes the
// Go-resident size: the arrays every matrix holds, dense or frozen, plus the
// leaf and overflow-block slabs Expire parked in the pool for the insert
// path to reuse.
type Stats struct {
	Items          int64 // accepted stream items
	Clamped        int64 // out-of-order items clamped to the newest time
	Rejected       int64 // items dropped after Finalize
	Leaves         int   // leaf nodes
	Layers         int   // tree height (root level)
	Nodes          int   // total tree nodes
	OverflowBlocks int   // overflow block matrices
	SealedMatrices int   // aggregate matrices built so far
	SpillEntries   int   // entries held in aggregate spill lists
	SpaceBytes     int64
	HeapBytes      int64
	AvgLeafUtil    float64 // mean leaf-matrix slot utilization (paper E(α))
}

// Stats walks the tree and returns current statistics. Closed non-leaf
// nodes are sealed on demand so the full aggregate hierarchy is accounted
// for; call Finalize first to include the open spine. Stats builds no read
// index: a frozen aggregate's column index counts once ColSum has built it
// (DESIGN.md §7).
func (s *Summary) Stats() Stats {
	st := Stats{
		Items:    s.items,
		Clamped:  s.clamped,
		Rejected: s.rejected,
		Leaves:   s.leaves,
	}
	if s.root == nil {
		return st
	}
	st.Layers = int(s.root.level)
	var utilSum float64
	var walk func(n *node)
	walk = func(n *node) {
		st.Nodes++
		if n.level == 1 {
			st.SpaceBytes += n.mat.SpaceBytes()
			st.HeapBytes += n.mat.HeapBytes()
			utilSum += n.mat.Utilization()
			for _, ob := range n.obs {
				st.OverflowBlocks++
				st.SpaceBytes += ob.SpaceBytes()
				st.HeapBytes += ob.HeapBytes()
			}
			return
		}
		// Keys: k−1 separator timestamps, 64 bits each (paper's I term).
		kids := s.ar.children(n)
		if k := len(kids); k > 1 {
			st.SpaceBytes += int64(k-1) * 8
			st.HeapBytes += int64(k-1) * 8
		}
		if n.closed {
			s.sealNow(n)
		}
		if n.mat != nil {
			st.SealedMatrices++
			st.SpillEntries += n.mat.SpillCount()
			st.SpaceBytes += n.mat.SpaceBytes()
			st.HeapBytes += n.mat.HeapBytes()
		}
		for _, id := range kids {
			walk(s.ar.node(nodeID(id)))
		}
	}
	walk(s.root)
	_, pooled := s.pool.Stats()
	st.HeapBytes += pooled
	if st.Leaves > 0 {
		st.AvgLeafUtil = utilSum / float64(st.Leaves)
	}
	return st
}

// SpaceBytes returns the packed structural size of the summary.
func (s *Summary) SpaceBytes() int64 { return s.Stats().SpaceBytes }

// HeapBytes returns the Go-resident size of the summary.
func (s *Summary) HeapBytes() int64 { return s.Stats().HeapBytes }

// Items returns the number of accepted stream items.
func (s *Summary) Items() int64 { return s.items }

// Frontier returns the append frontier: the newest timestamp the summary
// has accepted, math.MinInt64 while it is empty. Insert clamps older items
// up to it, so every future edge lands at T ≥ Frontier() and the answer
// over a window with te < Frontier() no longer changes under inserts — only
// Delete, Expire and Finalize can move it (DESIGN.md §16). The inequality
// is strict: an edge arriving at exactly Frontier() joins a window ending
// there.
func (s *Summary) Frontier() int64 {
	if s.root == nil {
		return math.MinInt64
	}
	return s.lastT
}

// Leaves returns the number of leaf nodes.
func (s *Summary) Leaves() int { return s.leaves }

// Layers returns the current tree height.
func (s *Summary) Layers() int {
	if s.root == nil {
		return 0
	}
	return int(s.root.level)
}
