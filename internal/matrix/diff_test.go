package matrix

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Absorb is the seal as it was before Aggregate, and its reference: it folds
// every entry of child into the dense matrix m (paper Alg. 2) in ForEach
// order, one Add at a time, spilling what Add refuses. NewIn, Absorb for each
// child, then Freeze must build exactly what Aggregate does.
func (m *Matrix) Absorb(child *Matrix) error {
	if m.cfg.Timed || m.frz != nil {
		return fmt.Errorf("matrix: cannot absorb into a timed or frozen matrix")
	}
	if child.cfg.FBits < m.cfg.FBits {
		return fmt.Errorf("matrix: child FBits %d < parent FBits %d", child.cfg.FBits, m.cfg.FBits)
	}
	rbits := child.cfg.FBits - m.cfg.FBits
	if child.cfg.D<<rbits != m.cfg.D {
		return fmt.Errorf("matrix: child D %d with %d promoted bits does not match parent D %d",
			child.cfg.D, rbits, m.cfg.D)
	}
	cbits := child.cfg.FBits
	child.ForEach(func(fpS, baseS, fpD, baseD, _ uint32, w int64) {
		pfpS, pbaseS := Promote(fpS, baseS, cbits, rbits)
		pfpD, pbaseD := Promote(fpD, baseD, cbits, rbits)
		m.addOrSpill(pfpS, pbaseS, pfpD, pbaseD, w)
	})
	return nil
}

// Freeze is the other half of Aggregate's reference: it converts a finished
// untimed matrix — one Absorb built, or one Decode read — to the read-only
// layout of frozen and drops its dense slab. Every kernel answers as before —
// EdgeSum and Sub keep their first-fit stop, RowSum its contiguous rows,
// ForEach and Encode their order and bytes — and Sub still changes weights,
// of slots and spill entries alike; Add panics. Freeze panics on a timed or
// already frozen matrix.
func (m *Matrix) Freeze() {
	if m.cfg.Timed || m.frz != nil {
		panic("matrix: Freeze of a timed or frozen matrix")
	}
	bsz, n := m.cfg.B, m.count
	f := newFrozen(int(m.cfg.D), m.fills)
	keys, ws, idxs := make([]uint64, n), make([]int64, n), make([]uint8, n)
	for bkt, fill := range m.fills {
		lo, hi, at := bkt*bsz, bkt*bsz+int(fill), f.start[bkt]
		copy(keys[at:], m.keys[lo:hi])
		copy(ws[at:], m.ws[lo:hi])
		copy(idxs[at:], m.idxs[lo:hi])
	}
	f.sortSpill(m.spill)
	m.slab = slab{keys: keys, ws: ws, idxs: idxs}
	m.frz = f
}

func (m *Matrix) addOrSpill(fpS, baseS, fpD, baseD uint32, w int64) {
	if m.Add(fpS, baseS, fpD, baseD, 0, w) {
		return
	}
	if sp := m.findSpill(fpS, baseS, fpD, baseD); sp != nil {
		sp.w += w
		return
	}
	m.spill = append(m.spill, spillEntry{fpS: fpS, fpD: fpD, baseS: baseS & (m.cfg.D - 1), baseD: baseD & (m.cfg.D - 1), w: w})
}

// findExhaustive is find as it was before first fit became an invariant: it
// walks all r×r candidate buckets, remembers the first free slot and keeps
// looking for a match. It is the placement oracle — find must return the same
// slot, index pair and found on every matrix Add and Absorb can build.
func (m *Matrix) findExhaustive(fpS, baseS, fpD, baseD, off uint32) (slot int, idx uint8, found bool) {
	slot = -1
	key := packKey(fpS, fpD)
	d := int(m.cfg.D)
	dMask := m.cfg.D - 1
	bsz := m.cfg.B
	keys, fills := m.keys, m.fills
	rowS := baseS & dMask
	for i := 0; i < m.cfg.Maps; i++ {
		colD := baseD & dMask
		rowBase := int(rowS) * d
		for j := 0; j < m.cfg.Maps; j++ {
			bkt := rowBase + int(colD)
			fill := int(fills[bkt])
			base := bkt * bsz
			ij := packIdx(i, j)
			for k, kk := range keys[base : base+fill] {
				if kk == key && m.idxs[base+k] == ij && (m.offs == nil || m.offs[base+k] == off) {
					return base + k, ij, true
				}
			}
			if fill < bsz && slot < 0 {
				slot, idx = base+fill, ij
			}
			colD = m.lcg.Next(colD)
		}
		rowS = m.lcg.Next(rowS)
	}
	return slot, idx, false
}

// edgeSumExhaustive is EdgeSum as it was before it trusted placement: a sweep
// of every slot of every candidate bucket, then the spill list. Where it
// disagrees with EdgeSum, an entry sits behind a bucket with room — the
// invariant broke; where both disagree with the model, the sum did.
func (m *Matrix) edgeSumExhaustive(fpS, baseS, fpD, baseD uint32, loOff, hiOff int64) int64 {
	var sum int64
	if offs, some := m.window(loOff, hiOff); some {
		key := packKey(fpS, fpD)
		d, bsz := int(m.cfg.D), m.cfg.B
		rowS := baseS & (m.cfg.D - 1)
		for i := 0; i < m.cfg.Maps; i++ {
			colD := baseD & (m.cfg.D - 1)
			for j := 0; j < m.cfg.Maps; j++ {
				base := (int(rowS)*d + int(colD)) * bsz
				idx := packIdx(i, j)
				for k, kk := range m.keys[base : base+bsz] {
					if kk == key && m.idxs[base+k] == idx && inWindow(offs, base+k, loOff, hiOff) {
						sum += m.ws[base+k]
					}
				}
				colD = m.lcg.Next(colD)
			}
			rowS = m.lcg.Next(rowS)
		}
	}
	baseSm, baseDm := baseS&(m.cfg.D-1), baseD&(m.cfg.D-1)
	for k := range m.spill {
		sp := &m.spill[k]
		if sp.fpS == fpS && sp.fpD == fpD && sp.baseS == baseSm && sp.baseD == baseDm {
			sum += sp.w
		}
	}
	return sum
}

// sameFind fails unless find and the exhaustive walk agree on the identity.
func sameFind(t testing.TB, m *Matrix, k refKey) {
	t.Helper()
	slot, idx, found := m.find(k.fpS, k.baseS, k.fpD, k.baseD, k.off)
	xslot, xidx, xfound := m.findExhaustive(k.fpS, k.baseS, k.fpD, k.baseD, k.off)
	if slot != xslot || idx != xidx || found != xfound {
		t.Fatalf("find(%+v) = (%d, %#x, %v), exhaustive walk (%d, %#x, %v)", k, slot, idx, found, xslot, xidx, xfound)
	}
}

// checkFirstFit fails unless every stored entry carries an index pair of the
// walk and sits at or before the first non-full bucket of it — the predicate
// Decode enforces.
func checkFirstFit(t testing.TB, m *Matrix) {
	t.Helper()
	for bkt, f := range m.fills {
		for k := bkt * m.cfg.B; k < bkt*m.cfg.B+int(f); k++ {
			if i, j := int(m.idxs[k]>>4), int(m.idxs[k]&0xf); i >= m.cfg.Maps || j >= m.cfg.Maps {
				t.Fatalf("slot %d: index pair (%d, %d) is not a position of a %d×%d walk", k, i, j, m.cfg.Maps, m.cfg.Maps)
			}
			if !m.firstFit(k) {
				t.Fatalf("slot %d (bucket %d) sits behind a non-full candidate bucket", k, bkt)
			}
		}
	}
}

// absorbChecked is parent.Absorb(child) with the placement oracle consulted
// before every entry: a decoded copy of parent takes the child's entries one
// addOrSpill at a time, and Absorb itself must leave parent byte-identical to
// that copy.
func absorbChecked(t *testing.T, parent, child *Matrix, rbits uint) {
	t.Helper()
	shadow, err := decode(encodeBytes(parent))
	if err != nil {
		t.Fatal(err)
	}
	child.ForEach(func(fpS, baseS, fpD, baseD, _ uint32, w int64) {
		pfpS, pbaseS := Promote(fpS, baseS, child.cfg.FBits, rbits)
		pfpD, pbaseD := Promote(fpD, baseD, child.cfg.FBits, rbits)
		sameFind(t, shadow, refKey{fpS: pfpS, baseS: pbaseS, fpD: pfpD, baseD: pbaseD})
		shadow.addOrSpill(pfpS, pbaseS, pfpD, pbaseD, w)
	})
	if err := parent.Absorb(child); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(parent), encodeBytes(shadow)) {
		t.Fatal("Absorb and entry-by-entry addOrSpill built different matrices")
	}
}

// refKey identifies one stored entry the way the paper does: fingerprint and
// base address of both endpoints, plus the arrival offset (0 when untimed).
type refKey struct{ fpS, baseS, fpD, baseD, off uint32 }

// refMatrix is the naive model the kernels are checked against: a map from
// entry identity to weight, plus the step each entry first appeared at.
// Where an entry lives — which candidate bucket, which slot, the spill list —
// is the matrix's business; every sum is defined over identities alone.
type refMatrix struct {
	w    map[refKey]int64
	born map[refKey]int
	step int
}

func newRef() *refMatrix {
	return &refMatrix{w: map[refKey]int64{}, born: map[refKey]int{}}
}

func (r *refMatrix) add(k refKey, w int64) {
	if _, ok := r.w[k]; !ok {
		r.born[k] = r.step
	}
	r.step++
	r.w[k] += w
}

func (r *refMatrix) sum(lo, hi int64, match func(refKey) bool) int64 {
	var s int64
	for k, w := range r.w {
		if match(k) && int64(k.off) >= lo && int64(k.off) <= hi {
			s += w
		}
	}
	return s
}

// check compares every observable of m, dense or frozen, against the model:
// the counts, ForEach (content and order), and the three sums over the whole
// range and over each window, for every stored identity and a few absent
// ones.
func (r *refMatrix) check(t *testing.T, m *Matrix, rng *rand.Rand, windows [][2]int64) {
	t.Helper()
	dense := m.frz == nil
	if dense {
		zeroBeyondFill(t, m)
		checkFirstFit(t, m)
	}
	if got := m.Count() + m.SpillCount(); got != len(r.w) {
		t.Fatalf("Count %d + SpillCount %d != %d distinct entries", m.Count(), m.SpillCount(), len(r.w))
	}
	// ForEach: every identity once with its weight; slots in slot order,
	// a bucket's slots and the spill list in arrival order.
	var seen []refKey
	m.ForEach(func(fpS, baseS, fpD, baseD, off uint32, w int64) {
		k := refKey{fpS, baseS, fpD, baseD, off}
		if want, ok := r.w[k]; !ok || want != w {
			t.Fatalf("ForEach: %+v weight %d, model has %d (present %v)", k, w, want, ok)
		}
		seen = append(seen, k)
	})
	if len(seen) != len(r.w) {
		t.Fatalf("ForEach visited %d entries, model has %d", len(seen), len(r.w))
	}
	n := 0
	for bkt := 0; bkt < int(m.cfg.D*m.cfg.D); bkt++ {
		lo, fill := m.bucket(bkt)
		for k := lo; k < lo+fill; k, n = k+1, n+1 {
			if got := packKey(seen[n].fpS, seen[n].fpD); got != m.keys[k] {
				t.Fatalf("ForEach entry %d is not slot %d", n, k)
			}
			if k > lo && r.born[seen[n-1]] > r.born[seen[n]] {
				t.Fatalf("bucket %d: slot %d arrived before its predecessor", bkt, k)
			}
		}
	}
	for ; n+1 < len(seen); n++ {
		if r.born[seen[n]] > r.born[seen[n+1]] {
			t.Fatalf("spill entry %d arrived before its predecessor", n+1-m.Count())
		}
	}
	probes := append([]refKey(nil), seen...)
	mask := m.cfg.D - 1
	for i := 0; i < 4; i++ {
		probes = append(probes, refKey{fpS: uint32(rng.Intn(1 << m.cfg.FBits)), baseS: rng.Uint32() & mask,
			fpD: uint32(rng.Intn(1 << m.cfg.FBits)), baseD: rng.Uint32() & mask})
	}
	for _, win := range windows {
		lo, hi := win[0], win[1]
		for _, p := range probes {
			got := m.EdgeSum(p.fpS, p.baseS, p.fpD, p.baseD, lo, hi)
			if dense {
				if want := m.edgeSumExhaustive(p.fpS, p.baseS, p.fpD, p.baseD, lo, hi); got != want {
					t.Fatalf("EdgeSum(%+v, [%d,%d]) = %d, a sweep of every candidate slot finds %d", p, lo, hi, got, want)
				}
			}
			if want := r.sum(lo, hi, func(k refKey) bool {
				return k.fpS == p.fpS && k.baseS == p.baseS && k.fpD == p.fpD && k.baseD == p.baseD
			}); got != want {
				t.Fatalf("EdgeSum(%+v, [%d,%d]) = %d, want %d", p, lo, hi, got, want)
			}
			if got, want := m.RowSum(p.fpS, p.baseS, lo, hi), r.sum(lo, hi, func(k refKey) bool {
				return k.fpS == p.fpS && k.baseS == p.baseS
			}); got != want {
				t.Fatalf("RowSum(%d@%d, [%d,%d]) = %d, want %d", p.fpS, p.baseS, lo, hi, got, want)
			}
			if got, want := m.ColSum(p.fpD, p.baseD, lo, hi), r.sum(lo, hi, func(k refKey) bool {
				return k.fpD == p.fpD && k.baseD == p.baseD
			}); got != want {
				t.Fatalf("ColSum(%d@%d, [%d,%d]) = %d, want %d", p.fpD, p.baseD, lo, hi, got, want)
			}
		}
	}
}

// frozenCopy returns m decoded from its own encoding and frozen: the form a
// sealed aggregate is queried in, built by the reference path.
func frozenCopy(t testing.TB, m *Matrix) *Matrix {
	t.Helper()
	fz, err := decode(encodeBytes(m))
	if err != nil {
		t.Fatal(err)
	}
	fz.Freeze()
	return fz
}

// checkWithFrozen runs check on the aggregate m and twice on a frozen copy
// of it — before it has a column index, which its first ColSum builds, and
// once it has one — and requires the copy to encode to m's bytes.
func (r *refMatrix) checkWithFrozen(t *testing.T, m *Matrix, rng *rand.Rand, windows [][2]int64) {
	t.Helper()
	r.check(t, m, rng, windows)
	fz := frozenCopy(t, m)
	if fz.IndexBytes() != 0 {
		t.Fatal("Freeze built a column index")
	}
	r.check(t, fz, rng, windows)
	if fz.IndexBytes() == 0 {
		t.Fatal("ColSum on a frozen matrix built no column index")
	}
	r.check(t, fz, rng, windows)
	if !bytes.Equal(encodeBytes(fz), encodeBytes(m)) {
		t.Fatal("frozen copy encodes to different bytes")
	}
}

// absorb folds child into the model the way Absorb must fold the matrices:
// every child identity promoted by rbits, offsets dropped, in ForEach order.
func (r *refMatrix) absorb(child *Matrix, rbits uint) {
	child.ForEach(func(fpS, baseS, fpD, baseD, _ uint32, w int64) {
		pfpS, pbaseS := Promote(fpS, baseS, child.cfg.FBits, rbits)
		pfpD, pbaseD := Promote(fpD, baseD, child.cfg.FBits, rbits)
		r.add(refKey{fpS: pfpS, baseS: pbaseS, fpD: pfpD, baseD: pbaseD}, w)
	})
}

// TestKernelsAgainstReference drives a seeded random Add / Sub / Absorb
// sequence through a timed leaf, its untimed parent and the grandparent —
// small enough that buckets fill, Add is refused, and aggregates spill —
// and compares every kernel with the model after every step, the aggregates'
// in their dense and their frozen form. Before every Add, Sub and absorbed
// entry, find must agree with findExhaustive: that is the proof that
// stopping at the first bucket with room moved no placement.
func TestKernelsAgainstReference(t *testing.T) {
	whole := [2]int64{math.MinInt64, math.MaxInt64}
	leafWindows := [][2]int64{whole, {0, math.MaxUint32}, {2, 5}, {-3, 0}, {7, 7}, {9, 1 << 40}}
	aggWindows := [][2]int64{whole, {-3, 4}} // an aggregate's entries all sit at offset 0
	for _, maps := range []int{1, 4} {
		for _, b := range []int{1, 3} {
			t.Run(fmt.Sprintf("maps=%d/b=%d", maps, b), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(16*maps + b)))
				leafCfg := Config{D: 4, B: b, Maps: maps, FBits: 6, Timed: true}
				newLeaf := func() (*Matrix, *refMatrix) { return mustNew(t, leafCfg, 0), newRef() }
				newAgg := func(d uint32, fbits uint) (*Matrix, *refMatrix) {
					return mustNew(t, Config{D: d, B: b, Maps: maps, FBits: fbits}, 0), newRef()
				}
				leaf, leafRef := newLeaf()
				parent, parentRef := newAgg(8, 5)
				grand, grandRef := newAgg(16, 4)
				// A narrow identity space: repeats merge, fingerprint 0
				// and base 0 both occur, buckets fill.
				edge := func() refKey {
					return refKey{fpS: uint32(rng.Intn(6)), baseS: uint32(rng.Intn(4)),
						fpD: uint32(rng.Intn(6)), baseD: uint32(rng.Intn(4)), off: uint32(rng.Intn(10))}
				}
				sealed, refused, spilled := 0, 0, 0
				for step := 0; step < 1500; step++ {
					k := edge()
					w := int64(1 + rng.Intn(5))
					switch op := rng.Intn(100); {
					case op < 75:
						before := leaf.Count()
						sameFind(t, leaf, k)
						if leaf.Add(k.fpS, k.baseS, k.fpD, k.baseD, k.off, w) {
							leafRef.add(k, w)
							break
						}
						refused++
						if _, present := leafRef.w[k]; present || leaf.Count() != before {
							t.Fatalf("step %d: Add refused %+v (stored before: %v), count %d → %d", step, k, present, before, leaf.Count())
						}
						// Refused means full: seal the leaf into its parent.
						fallthrough
					case op == 99:
						absorbChecked(t, parent, leaf, 1)
						parentRef.absorb(leaf, 1)
						parentRef.checkWithFrozen(t, parent, rng, aggWindows)
						spilled += parent.SpillCount()
						leaf, leafRef = newLeaf()
						if sealed++; sealed%4 == 0 {
							absorbChecked(t, grand, parent, 1)
							grandRef.absorb(parent, 1)
							grandRef.checkWithFrozen(t, grand, rng, aggWindows)
							parent, parentRef = newAgg(8, 5)
						}
					default:
						_, present := leafRef.w[k]
						sameFind(t, leaf, k)
						if got := leaf.Sub(k.fpS, k.baseS, k.fpD, k.baseD, k.off, w); got != present {
							t.Fatalf("step %d: Sub(%+v) = %v, stored %v", step, k, got, present)
						}
						if present {
							leafRef.w[k] -= w
						}
					}
					leafRef.check(t, leaf, rng, leafWindows)
				}
				// Sub must reach aggregate slots and spill entries too, dense
				// and frozen alike.
				spillSubs := 0
				for _, agg := range []struct {
					m   *Matrix
					ref *refMatrix
				}{{parent, parentRef}, {grand, grandRef}} {
					fz := frozenCopy(t, agg.m)
					spillSubs += fz.SpillCount()
					agg.m.ForEach(func(fpS, baseS, fpD, baseD, _ uint32, w int64) {
						sameFind(t, agg.m, refKey{fpS: fpS, baseS: baseS, fpD: fpD, baseD: baseD})
						if !agg.m.Sub(fpS, baseS, fpD, baseD, 0, w) || !fz.Sub(fpS, baseS, fpD, baseD, 0, w) {
							t.Fatalf("Sub missed stored aggregate entry %d@%d→%d@%d", fpS, baseS, fpD, baseD)
						}
						agg.ref.w[refKey{fpS: fpS, baseS: baseS, fpD: fpD, baseD: baseD}] -= w
					})
					agg.ref.check(t, agg.m, rng, aggWindows)
					agg.ref.check(t, fz, rng, aggWindows)
				}
				t.Logf("%d seals, %d refused Adds, %d spilled, %d spill entries met a frozen Sub", sealed, refused, spilled, spillSubs)
				if sealed < 8 || refused == 0 || (b == 1 && (spilled == 0 || spillSubs == 0)) {
					t.Fatalf("sequence too tame: %d seals, %d refused Adds, %d spilled, %d frozen spill Subs", sealed, refused, spilled, spillSubs)
				}
			})
		}
	}
}
