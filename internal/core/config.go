// Package core implements HIGGS, the hierarchy-guided graph stream summary
// that is this repository's primary contribution (paper §IV).
//
// HIGGS is an item-based, bottom-up aggregated B-tree. Every tree node owns
// a time interval and a compressed matrix summarizing the graph stream of
// its subtree: leaves are filled directly from arriving edges; a non-leaf
// node's matrix is aggregated from its children's matrices when the node
// seals (receives its θ-th child and a sibling must be opened). Aggregation
// shifts fingerprint bits into matrix addresses, which reproduces exactly
// the address a direct hash at the parent level would compute, so the
// hierarchy adds no error beyond leaf-level collisions.
//
// Temporal range queries decompose along the tree (the paper's boundary
// search): sealed nodes fully inside the range contribute their aggregate
// matrix without touching timestamps; range fringes are resolved at leaf
// level, where entries carry arrival offsets.
package core

import (
	"fmt"

	"higgs/internal/hashing"
)

// Config parameterizes a HIGGS summary. The zero value is invalid; start
// from DefaultConfig.
type Config struct {
	// D1 is the dimension of leaf compressed matrices (d1 in the paper);
	// it must be a power of two. The paper recommends 16 (§VI-I).
	D1 uint32
	// F1 is the number of fingerprint bits at leaf level (19 in the paper,
	// chosen so Z = d1·2^F1 matches the baselines' hash ranges).
	F1 uint
	// B is the number of entries per bucket (3 in the paper).
	B int
	// Theta is the maximum number of children per node; it must be a power
	// of four (paper §IV-B) so that aggregation grows matrices by a whole
	// number of address bits per side. R = log4(Theta) fingerprint bits are
	// promoted per level.
	Theta int
	// Maps is the number of mapping positions per vertex for the multiple
	// mapping buckets optimization (r = 4 in the paper); 1 disables MMB.
	Maps int
	// OverflowBlocks enables the overflow-block optimization: when a leaf
	// insert fails and the edge's timestamp equals the leaf's last
	// timestamp, the edge goes to a small overflow matrix chained to the
	// leaf instead of opening a new leaf.
	OverflowBlocks bool
	// OBBucket is the bucket size of overflow-block matrices (they share
	// D1 and F1 with leaves so they aggregate identically, but are smaller
	// per bucket). Default 1.
	OBBucket int
	// Seed seeds the vertex hash function.
	Seed uint64
}

// DefaultConfig returns the paper's recommended configuration (§VI-A):
// d1 = 16, F1 = 19, b = 3, θ = 4, r = 4, overflow blocks on.
func DefaultConfig() Config {
	return Config{
		D1:             16,
		F1:             19,
		B:              3,
		Theta:          4,
		Maps:           4,
		OverflowBlocks: true,
		OBBucket:       1,
		Seed:           0x9e3779b97f4a7c15,
	}
}

// maxLeafSlots bounds the slots of one leaf or overflow-block matrix,
// D1²·max(B, OBBucket): the paper's default is 16²·3 = 768 and the fig21
// sweep peaks at 64²·3 = 12,288. A snapshot's header is a Config, so the
// bound is also what a snapshot can make its decoder allocate per leaf.
const maxLeafSlots = 1 << 16

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case !hashing.IsPow2(c.D1):
		return fmt.Errorf("core: D1 = %d is not a power of two", c.D1)
	case c.F1 < 1 || c.F1 > 32:
		return fmt.Errorf("core: F1 = %d, need 1..32", c.F1)
	case c.B < 1:
		return fmt.Errorf("core: B = %d, need ≥ 1", c.B)
	case c.Theta < 4 || !isPow4(c.Theta):
		return fmt.Errorf("core: Theta = %d must be a power of four ≥ 4", c.Theta)
	case c.Maps < 1 || c.Maps > 16:
		return fmt.Errorf("core: Maps = %d, need 1..16", c.Maps)
	case uint32(c.Maps) > c.D1:
		return fmt.Errorf("core: Maps = %d exceeds D1 = %d", c.Maps, c.D1)
	case c.OBBucket < 1:
		return fmt.Errorf("core: OBBucket = %d, need ≥ 1", c.OBBucket)
	case uint64(max(c.B, c.OBBucket)) > maxLeafSlots/(uint64(c.D1)*uint64(c.D1)):
		return fmt.Errorf("core: D1² · max(B, OBBucket) = %d² · %d exceeds %d slots a leaf", c.D1, max(c.B, c.OBBucket), maxLeafSlots)
	default:
		return nil
	}
}

// rbits returns R = log4(Theta), the number of fingerprint bits promoted
// into the address per level.
func (c Config) rbits() uint { return hashing.Log2(uint32(c.Theta)) / 2 }

func isPow4(x int) bool {
	if x <= 0 || x&(x-1) != 0 {
		return false
	}
	return hashing.Log2(uint32(x))%2 == 0
}
