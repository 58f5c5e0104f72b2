package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"higgs/internal/matrix"
)

// node is one HIGGS tree node, stored by value inside the Summary's arena.
// Leaves (level 1) own a timed compressed matrix filled directly from the
// stream, plus optional overflow blocks. Non-leaf nodes own an untimed
// aggregate matrix built when the node seals: on the first read that needs
// it, not when the node closes.
//
// Children are recorded as a range into the arena's child-index slab:
// kidBase is the node's Theta-stride block, nKids the occupied prefix.
//
// Mutation happens only on the insertion path; once a node is closed its
// subtree is immutable except for the one-shot aggregation guarded by the
// sealState latch (safe to race between concurrent queries) and for Delete
// and Expire, which the caller must not run concurrently with queries. Two
// invariants hold between operations: a sealed node's descendants are all
// sealed, and every aggregate equals the Aggregate of its node's current
// children. A seal builds from sealed children, so it keeps both; Delete
// subtracts from sealed aggregates only (an unsealed one builds later from
// the decremented leaf); Expire releases the aggregate of every node whose
// subtree lost a child, so a released node's ancestors are released too.
type node struct {
	firstT    int64            // earliest timestamp in the subtree
	lastT     int64            // latest timestamp; valid once closed
	mat       *matrix.Matrix   // leaf: from construction; non-leaf: once sealed
	obs       []*matrix.Matrix // leaf overflow blocks
	kidBase   int32            // child block base in the arena; noKids for leaves
	nKids     int32
	level     int32  // 1 = leaf
	sealState uint32 // atomic: sealPending → sealRunning → sealDone
	closed    bool   // no further edges will enter this subtree
}

// Seal latch states. A plain uint32 driven by the atomic package (rather
// than sync.Once or atomic.Uint32) so arena slots can be reset and reused
// by value without tripping copylocks.
const (
	sealPending uint32 = iota
	sealRunning
	sealDone
)

// last returns the node's effective latest timestamp: frozen once closed,
// the stream's current time while still open.
func (n *node) last(streamLast int64) int64 {
	if n.closed {
		return n.lastT
	}
	return streamLast
}

// sealNow builds the aggregate matrix of a closed non-leaf node once per
// release: the first read that needs it pays the build (paper Algorithm 1
// builds it at close). It recursively forces children first, so it is safe
// to call in any order. Concurrent queries may race to force the same
// pending node; the sealState CAS arbitrates:
// exactly one caller builds, the rest spin until the winner publishes the
// matrix with the sealDone store (atomic release/acquire pairing makes
// n.mat safe to read afterwards).
func (s *Summary) sealNow(n *node) {
	if n.level == 1 {
		return
	}
	for {
		switch atomic.LoadUint32(&n.sealState) {
		case sealDone:
			return
		case sealPending:
			if atomic.CompareAndSwapUint32(&n.sealState, sealPending, sealRunning) {
				s.buildAggregate(n)
				atomic.StoreUint32(&n.sealState, sealDone)
				return
			}
		default:
			runtime.Gosched()
		}
	}
}

// sealed reports whether the node's aggregate has been published.
func (n *node) sealed() bool {
	return atomic.LoadUint32(&n.sealState) == sealDone
}

// unseal drops a node's aggregate and rearms its latch, so the next read
// builds it again from the current children. Write path only: no reader may
// be inside the latch.
func (n *node) unseal() {
	n.mat = nil
	n.sealState = sealPending
}

// buildAggregate implements paper Algorithm 2: a √θ·d × √θ·d matrix one
// level up, R fingerprint bits shifted into the addresses of every child
// entry, and merged. Overflow-block matrices of leaf children are absorbed
// right after their leaf's matrix. Entries that cannot be placed go to the
// parent matrix's spill list with full fidelity (DESIGN.md §3.4). Nothing
// adds to the aggregate again, so matrix.Aggregate builds it directly in
// its frozen form for sealNow to publish.
func (s *Summary) buildAggregate(n *node) {
	kids := s.ar.children(n)
	first := s.ar.node(nodeID(kids[0]))
	if first.level > 1 {
		for _, id := range kids {
			s.sealNow(s.ar.node(nodeID(id)))
		}
	}
	ccfg := first.mat.Cfg()
	rb := s.rb
	// Fingerprints cannot shrink below one bit; once exhausted the matrix
	// stops growing and relies on the spill list.
	if ccfg.FBits <= rb {
		rb = ccfg.FBits - 1
	}
	pcfg := matrix.Config{
		D:     ccfg.D << rb,
		B:     s.cfg.B,
		Maps:  s.cfg.Maps,
		FBits: ccfg.FBits - rb,
	}
	var buf [16]*matrix.Matrix
	children := buf[:0]
	for _, id := range kids {
		c := s.ar.node(nodeID(id))
		children = append(append(children, c.mat), c.obs...)
	}
	m, err := matrix.Aggregate(pcfg, children)
	if err != nil {
		// pcfg derives from a validated Config; failure is a programming
		// error in this package, not a caller mistake.
		panic(fmt.Sprintf("core: aggregate: %v", err))
	}
	n.mat = m
}
