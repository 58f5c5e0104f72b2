package core

// nodeID indexes a node inside the Summary's arena. IDs — not pointers —
// are what tree links store, so the whole structure lives in a handful of
// large slabs instead of one heap object per node.
type nodeID int32

// noKids marks a node without an allocated child block (leaves).
const noKids int32 = -1

const (
	nodeChunkShift = 10
	nodeChunkLen   = 1 << nodeChunkShift // nodes per chunk
	nodeChunkMask  = nodeChunkLen - 1

	minKidChunkLen = 4096 // child-index entries per chunk (≥ Theta)
)

// arena owns the node slab and the child-index slab of one Summary.
//
// Chunks are fixed-size arrays that never move once allocated, so a *node
// obtained from the arena stays valid for the node's lifetime — the spine
// holds raw pointers safely while the arena keeps growing. Only the outer
// chunk directories change on growth, and only on the write path; readers
// resolve IDs while nothing allocates (no read path allocates nodes).
//
// Children of a node occupy one Theta-stride block in the child-index slab
// (every non-leaf has at most Theta children). Blocks are pow2-aligned
// within pow2 chunks, so a block never straddles a chunk boundary.
//
// Allocation and free run only on the exclusive write path (insert,
// Expire, decode); free lists recycle nodes and child blocks dropped by
// Expire without synchronization beyond that exclusivity.
type arena struct {
	theta int // child block stride

	nodes     []*[nodeChunkLen]node
	nextNode  nodeID
	freeNodes []nodeID

	kidChunkLen   int
	kidChunkMask  int32
	kids          [][]int32
	nextKid       int32
	freeKidBlocks []int32 // block base indices
}

func newArena(theta int) *arena {
	a := &arena{theta: theta, kidChunkLen: minKidChunkLen}
	for a.kidChunkLen < theta {
		a.kidChunkLen <<= 1
	}
	a.kidChunkMask = int32(a.kidChunkLen - 1)
	return a
}

// node resolves an ID to its stable address.
func (a *arena) node(id nodeID) *node {
	return &a.nodes[id>>nodeChunkShift][id&nodeChunkMask]
}

// alloc returns a zeroed node. Write path only.
func (a *arena) alloc() (nodeID, *node) {
	if k := len(a.freeNodes); k > 0 {
		id := a.freeNodes[k-1]
		a.freeNodes = a.freeNodes[:k-1]
		n := a.node(id)
		*n = node{kidBase: noKids}
		return id, n
	}
	id := a.nextNode
	if int(id)>>nodeChunkShift == len(a.nodes) {
		a.nodes = append(a.nodes, new([nodeChunkLen]node))
	}
	a.nextNode++
	n := a.node(id)
	*n = node{kidBase: noKids}
	return id, n
}

// freeNode recycles a node. The caller must guarantee nothing references
// it anymore.
func (a *arena) freeNode(id nodeID) {
	a.freeNodes = append(a.freeNodes, id)
}

// allocKids returns the base of a zeroed Theta-stride child block.
func (a *arena) allocKids() int32 {
	if k := len(a.freeKidBlocks); k > 0 {
		base := a.freeKidBlocks[k-1]
		a.freeKidBlocks = a.freeKidBlocks[:k-1]
		blk := a.kidBlock(base)
		for i := range blk {
			blk[i] = 0
		}
		return base
	}
	base := a.nextKid
	if int(base)/a.kidChunkLen == len(a.kids) {
		a.kids = append(a.kids, make([]int32, a.kidChunkLen))
	}
	a.nextKid += int32(a.theta)
	return base
}

// freeKids recycles a child block.
func (a *arena) freeKids(base int32) {
	a.freeKidBlocks = append(a.freeKidBlocks, base)
}

// kidBlock returns the full Theta-stride block at base.
func (a *arena) kidBlock(base int32) []int32 {
	c := a.kids[base/int32(a.kidChunkLen)]
	off := base & a.kidChunkMask
	return c[off : off+int32(a.theta)]
}

// children returns the IDs of n's current children (read-only view).
func (a *arena) children(n *node) []int32 {
	if n.kidBase == noKids || n.nKids == 0 {
		return nil
	}
	return a.kidBlock(n.kidBase)[:n.nKids]
}

// liveNodes reports how many nodes are currently allocated.
func (a *arena) liveNodes() int {
	return int(a.nextNode) - len(a.freeNodes)
}
