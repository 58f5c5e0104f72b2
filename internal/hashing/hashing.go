// Package hashing provides the hash-function substrate shared by all graph
// stream summaries in this repository: a 64-bit mixing hash for vertex
// identifiers, the fingerprint/address split used by HIGGS (paper Eq. 1),
// and linear-congruential address sequences for multiple mapping buckets
// (paper §IV-C), including their inverses, which the HIGGS aggregation step
// needs to recover base addresses from stored positions.
package hashing

import "fmt"

// Hasher derives 64-bit hash values for vertex identifiers. A Hasher is
// deterministic for a given seed, so two structures built with the same seed
// agree on fingerprints and addresses. The zero value hashes with seed 0 and
// is ready to use.
type Hasher struct {
	seed uint64
}

// NewHasher returns a Hasher with the given seed.
func NewHasher(seed uint64) Hasher { return Hasher{seed: seed} }

// Hash returns the 64-bit hash of vertex v. It applies the splitmix64
// finalizer, which mixes all input bits into all output bits and is
// bijective on 64-bit values for any fixed seed.
func (h Hasher) Hash(v uint64) uint64 {
	x := v + 0x9e3779b97f4a7c15 + h.seed
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix2 combines two 64-bit values into one hash. It is used by structures
// that key on (vertex, time-block) pairs, such as Horae's time-prefix
// encoding.
func Mix2(a, b uint64) uint64 {
	x := a*0xff51afd7ed558ccd + b + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53
	x ^= b << 1
	x = (x ^ (x >> 29)) * 0xbf58476d1ce4e5b9
	return x ^ (x >> 32)
}

// Split separates a 64-bit hash into a fingerprint (the low fbits bits) and
// an address (the remaining bits reduced modulo d), exactly as paper Eq. 1:
//
//	f(v) = H(v) & (2^F1 − 1)
//	h(v) = (H(v) >> F1) % d1
//
// d must be positive. fbits must be in [1, 32].
func Split(hash uint64, fbits uint, d uint32) (fp uint32, addr uint32) {
	fp = uint32(hash & ((1 << fbits) - 1))
	addr = uint32((hash >> fbits) % uint64(d))
	return fp, addr
}

// IsPow2 reports whether x is a positive power of two.
func IsPow2(x uint32) bool { return x != 0 && x&(x-1) == 0 }

// Log2 returns floor(log2(x)) for x > 0.
func Log2(x uint32) uint {
	var n uint
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// IndexPairBits returns the packed width of a stored entry's candidate
// index pair (i, j) when each endpoint has maps candidates: ⌈log2 maps⌉
// bits per side.
func IndexPairBits(maps int) uint {
	var n uint
	for 1<<n < maps {
		n++
	}
	return 2 * n
}

// LCG is a full-period linear congruential permutation of Z_d for d a power
// of two: x ↦ (a·x + c) mod d with a ≡ 1 (mod 4) and c odd (Hull–Dobell).
// HIGGS uses LCG sequences to generate the r candidate addresses of a vertex
// ("multiple mapping buckets"); because the map is a bijection with a known
// inverse, an entry's base address can be recovered from its stored position
// and sequence index during aggregation.
type LCG struct {
	d    uint32 // modulus, power of two
	mask uint32 // d − 1
	a    uint32 // multiplier
	c    uint32 // increment
	ainv uint32 // multiplicative inverse of a modulo d
}

// Multiplier and increment shared by all LCGs in this repository. a ≡ 5
// (mod 8) gives good lattice structure for power-of-two moduli
// (L'Ecuyer 1999); c = 1 is odd as required for full period.
const (
	lcgA = 0xd1342543de82ef95 & 0xffffffff // odd, ≡ 5 (mod 8)
	lcgC = 1
)

// NewLCG returns the canonical LCG on Z_d. d must be a power of two.
func NewLCG(d uint32) (LCG, error) {
	if !IsPow2(d) {
		return LCG{}, fmt.Errorf("hashing: LCG modulus %d is not a power of two", d)
	}
	a := uint32(lcgA)
	return LCG{d: d, mask: d - 1, a: a, c: lcgC, ainv: invPow2(a, d)}, nil
}

// MustLCG is NewLCG for moduli known to be valid; it panics otherwise.
// It is intended for package-internal construction from validated configs.
func MustLCG(d uint32) LCG {
	l, err := NewLCG(d)
	if err != nil {
		panic(err)
	}
	return l
}

// invPow2 computes the multiplicative inverse of odd a modulo the power of
// two d using Newton–Hensel lifting: x ← x·(2 − a·x) doubles the number of
// correct low bits each step.
func invPow2(a, d uint32) uint32 {
	x := a // correct to 3 bits for odd a
	for i := 0; i < 5; i++ {
		x = x * (2 - a*x)
	}
	return x & (d - 1)
}

// D returns the modulus of the permutation.
func (l LCG) D() uint32 { return l.d }

// Next returns the successor of x in the permutation.
func (l LCG) Next(x uint32) uint32 { return (l.a*x + l.c) & l.mask }

// Prev returns the predecessor of x in the permutation.
func (l LCG) Prev(x uint32) uint32 { return (l.ainv * (x - l.c)) & l.mask }

// Seq fills dst with the address sequence {base, Next(base), …} of length
// len(dst). dst entries are all distinct as long as len(dst) ≤ D().
func (l LCG) Seq(base uint32, dst []uint32) {
	x := base & l.mask
	for i := range dst {
		dst[i] = x
		x = l.Next(x)
	}
}

// Base recovers the sequence base address from the address at sequence
// position idx (0-based): Base(Seq(b)[i], i) == b.
func (l LCG) Base(addr uint32, idx int) uint32 {
	x := addr & l.mask
	for i := 0; i < idx; i++ {
		x = l.Prev(x)
	}
	return x
}

// At returns the idx-th (0-based) element of the sequence starting at base.
func (l LCG) At(base uint32, idx int) uint32 {
	x := base & l.mask
	for i := 0; i < idx; i++ {
		x = l.Next(x)
	}
	return x
}
