package matrix

import (
	"fmt"
	"math/bits"
	"sync"

	"higgs/internal/hashing"
)

// Aggregate builds the aggregate of children at geometry cfg (paper Alg. 2)
// and returns it frozen. Every child entry, in ForEach order and child by
// child, has cfg's promoted bits shifted into its addresses and merges into
// the entry of the same identity, else takes the first free slot of its
// candidate walk, else joins the spill list with full fidelity. Time offsets
// are dropped, as aggregated matrices are untimed. A child's fingerprint
// width must not be below cfg's; the difference is the number of promoted
// bits.
//
// The result is what a dense matrix of geometry cfg that took the same
// entries one Add at a time, and spilled what Add refused, would be once
// frozen — the same slots, weights, Count, Added and spill list — but no
// dense slab is ever allocated: placement needs only each bucket's fill, and
// an index over the identities met so far answers the question the dense
// walk asked of the slots. By first fit an entry lies before the first
// non-full bucket of its walk, so the walk finds a stored identity exactly
// when the index does; and fills only grow, so an identity refused once is
// refused again and is found in the spill list. The working arrays come from
// a pool shared by every caller; the call allocates only the arrays the
// frozen matrix keeps.
func Aggregate(cfg Config, children []*Matrix) (*Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Timed {
		return nil, fmt.Errorf("matrix: cannot aggregate into a timed matrix")
	}
	bound := 0
	for _, c := range children {
		if c.cfg.FBits < cfg.FBits {
			return nil, fmt.Errorf("matrix: child FBits %d < parent FBits %d", c.cfg.FBits, cfg.FBits)
		}
		if rbits := c.cfg.FBits - cfg.FBits; c.cfg.D<<rbits != cfg.D {
			return nil, fmt.Errorf("matrix: child D %d with %d promoted bits does not match parent D %d",
				c.cfg.D, rbits, cfg.D)
		}
		bound += c.count + len(c.spill)
	}
	sc := scratchPool.Get().(*scratch)
	sc.reset(cfg, bound)
	for _, c := range children {
		sc.absorb(c)
	}
	m := sc.freeze()
	if len(sc.index) <= maxScratchCells && len(sc.fills) <= maxScratchCells {
		scratchPool.Put(sc)
	}
	return m, nil
}

// scratchPool holds Aggregate's working arrays, one scratch per P at most in
// steady state rather than one per summary and level.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxScratchCells bounds the index cells and the buckets of a scratch that
// goes back to the pool; a larger one is dropped. It sits well above the
// largest seals a sliding-window daemon makes at the default geometry: level
// 5, where D² = 64K and the children's 70K entries merge to about 17K.
const maxScratchCells = 1 << 19

// initialCells caps the index a call starts with: 256 KB, enough for the
// distinct identities of every seal of the default geometry's sliding window.
const initialCells = 1 << 15

// spilled marks an index reference to the spill list.
const spilled = 1 << 31

// scratch is the state of one Aggregate call.
type scratch struct {
	cfg   Config
	lcg   hashing.LCG
	fills []uint8 // per bucket of cfg's geometry: slots taken so far
	// index is an open-addressing table over every identity placed so far,
	// kept at most half full: the low 32 bits of its hash << 32 | a
	// reference, 0 for an empty cell. A reference is e+1 for slot entry e,
	// spilled|s for spill entry s.
	index   []uint64
	shift   uint      // 64 − log2(len(index)): an identity's home cell is hash >> shift
	entries []arrival // the slot entries in arrival order
	spill   []spillEntry
	added   int64
	// back[i*childD + a] is the base address whose walk visits a at step i,
	// tabulated for a child geometry of dimension childD and childMaps steps.
	back      []uint32
	childD    uint32
	childMaps int
}

// arrival is one slot entry of a scratch: what a merge compares and adds to
// shares a cache line.
type arrival struct {
	key uint64 // fpS | fpD<<32
	ids uint64 // masked base pair, baseS | baseD<<32
	w   int64
	bkt uint32
	idx uint8 // index pair
	pos uint8 // place in the bucket
}

// reset prepares sc for an aggregate of geometry cfg over children holding
// bound entries. The index and the entry list grow with the distinct
// identities met, which on a repetitive stream are far fewer than bound, so
// the index starts at room for bound only up to initialCells.
func (sc *scratch) reset(cfg Config, bound int) {
	sc.cfg, sc.lcg, sc.added = cfg, hashing.MustLCG(cfg.D), 0
	sc.fills = zeroed(sc.fills, int(cfg.D)*int(cfg.D))
	sc.entries, sc.spill = sc.entries[:0], sc.spill[:0]
	cells := 64
	for cells < 2*bound && cells < initialCells {
		cells <<= 1
	}
	sc.rehash(cells)
}

// rehash resizes the index to cells and fills it again from the entry list
// and the spill list, which hold every identity it indexes.
func (sc *scratch) rehash(cells int) {
	sc.index = zeroed(sc.index, cells)
	sc.shift = 64 - uint(bits.TrailingZeros(uint(cells)))
	for e := range sc.entries {
		sc.insert(hashing.Mix2(sc.entries[e].key, sc.entries[e].ids), uint64(e+1))
	}
	for s := range sc.spill {
		sp := &sc.spill[s]
		sc.insert(hashing.Mix2(packKey(sp.fpS, sp.fpD), uint64(sp.baseS)|uint64(sp.baseD)<<32), spilled|uint64(s))
	}
}

// insert puts ref into the first empty cell from hash h's home cell on.
func (sc *scratch) insert(h, ref uint64) {
	last := uint64(len(sc.index) - 1)
	p := h >> sc.shift
	for sc.index[p] != 0 {
		p = (p + 1) & last
	}
	sc.index[p] = h<<32 | ref
}

// zeroed returns s resized to n elements, all zero.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// tabulate returns the base-address table of c's geometry.
func (sc *scratch) tabulate(c *Matrix) []uint32 {
	d, maps := c.cfg.D, c.cfg.Maps
	if d != sc.childD || maps != sc.childMaps {
		sc.back = zeroed(sc.back, int(d)*maps)
		for a := uint32(0); a < d; a++ {
			x := a
			for i := 0; i < maps; i++ {
				sc.back[i*int(d)+int(a)] = x
				x = c.lcg.Prev(x)
			}
		}
		sc.childD, sc.childMaps = d, maps
	}
	return sc.back
}

// absorb adds every entry of c in ForEach order, its addresses promoted.
func (sc *scratch) absorb(c *Matrix) {
	cd := int(c.cfg.D)
	logD := bits.TrailingZeros(uint(cd))
	cbits, rbits := c.cfg.FBits, c.cfg.FBits-sc.cfg.FBits
	back := sc.tabulate(c)
	for bkt, seen := 0, 0; bkt < cd*cd && seen < c.count; bkt++ {
		lo, fill := c.bucket(bkt)
		seen += fill
		row, col := bkt>>logD, bkt&(cd-1)
		for k := lo; k < lo+fill; k++ {
			kk, ij := c.keys[k], c.idxs[k]
			fpS, baseS := Promote(uint32(kk), back[int(ij>>4)*cd+row], cbits, rbits)
			fpD, baseD := Promote(uint32(kk>>32), back[int(ij&0xf)*cd+col], cbits, rbits)
			sc.add(fpS, baseS, fpD, baseD, c.ws[k])
		}
	}
	for i := range c.spill {
		sp := &c.spill[i]
		fpS, baseS := Promote(sp.fpS, sp.baseS, cbits, rbits)
		fpD, baseD := Promote(sp.fpD, sp.baseD, cbits, rbits)
		sc.add(fpS, baseS, fpD, baseD, sp.w)
	}
}

// add merges weight w into the entry of the identity, else places a new one
// where a first-fit Add would, else spills it. Added counts what reaches a
// slot, merged or placed, as Add did.
func (sc *scratch) add(fpS, baseS, fpD, baseD uint32, w int64) {
	mask := sc.cfg.D - 1
	baseS, baseD = baseS&mask, baseD&mask
	key, ids := packKey(fpS, fpD), uint64(baseS)|uint64(baseD)<<32
	h := hashing.Mix2(key, ids)
	last := uint64(len(sc.index) - 1)
	p := h >> sc.shift
	for ; sc.index[p] != 0; p = (p + 1) & last {
		cell := sc.index[p]
		if uint32(cell>>32) != uint32(h) {
			continue
		}
		if ref := uint32(cell); ref&spilled == 0 {
			if a := &sc.entries[ref-1]; a.key == key && a.ids == ids {
				a.w += w
				sc.added++
				return
			}
		} else if sp := &sc.spill[ref&^spilled]; sp.fpS == fpS && sp.fpD == fpD && sp.baseS == baseS && sp.baseD == baseD {
			sp.w += w
			return
		}
	}
	ref := sc.place(key, ids, w)
	if ref == 0 {
		ref = spilled | uint64(len(sc.spill))
		sc.spill = append(sc.spill, spillEntry{fpS: fpS, fpD: fpD, baseS: baseS, baseD: baseD, w: w})
	}
	if 2*(len(sc.entries)+len(sc.spill)) > len(sc.index) {
		sc.rehash(2 * len(sc.index)) // indexes the new entry too
		return
	}
	sc.index[p] = h<<32 | ref
}

// place appends a new slot entry at the first candidate bucket with room and
// returns its index reference, 0 when every candidate bucket is full.
func (sc *scratch) place(key, ids uint64, w int64) uint64 {
	d, bsz := int(sc.cfg.D), sc.cfg.B
	rowS := uint32(ids)
	for i := 0; i < sc.cfg.Maps; i++ {
		colD := uint32(ids >> 32)
		for j := 0; j < sc.cfg.Maps; j++ {
			bkt := int(rowS)*d + int(colD)
			if fill := sc.fills[bkt]; int(fill) < bsz {
				sc.fills[bkt] = fill + 1
				sc.entries = append(sc.entries, arrival{key: key, ids: ids, w: w, bkt: uint32(bkt), idx: packIdx(i, j), pos: fill})
				sc.added++
				return uint64(len(sc.entries))
			}
			colD = sc.lcg.Next(colD)
		}
		rowS = sc.lcg.Next(rowS)
	}
	return 0
}

// freeze lays the slot entries out bucket-major — each at its bucket's
// offset plus its place, so a bucket keeps arrival order — and returns the
// frozen matrix, allocating only what it keeps.
func (sc *scratch) freeze() *Matrix {
	n := len(sc.entries)
	f := newFrozen(int(sc.cfg.D), sc.fills)
	keys, ws, idxs := make([]uint64, n), make([]int64, n), make([]uint8, n)
	for i := range sc.entries {
		a := &sc.entries[i]
		at := f.start[a.bkt] + uint32(a.pos)
		keys[at], ws[at], idxs[at] = a.key, a.w, a.idx
	}
	var spill []spillEntry
	if len(sc.spill) > 0 {
		spill = append(make([]spillEntry, 0, len(sc.spill)), sc.spill...)
	}
	f.sortSpill(spill)
	return &Matrix{
		cfg:   sc.cfg,
		lcg:   sc.lcg,
		slab:  slab{keys: keys, ws: ws, idxs: idxs},
		frz:   f,
		spill: spill,
		count: n,
		added: sc.added,
	}
}
