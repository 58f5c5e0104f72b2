// Package matrix implements the compressed matrix that HIGGS attaches to
// every tree node (paper §IV-A): a d×d grid of buckets, each holding b
// entries of the form (f(s), f(d), Δt, w) for leaf matrices and
// (f(s), f(d), w) for aggregated non-leaf matrices.
//
// The package also implements the two mechanisms the paper builds on top of
// the raw grid:
//
//   - Multiple mapping buckets (§IV-C): each vertex owns r candidate
//     addresses generated by a linear-congruential permutation; an entry
//     records its index pair (i, j) so the base address can be recovered.
//   - Shift-based aggregation (§IV-B, Alg. 2): Promote moves R fingerprint
//     bits into the address, which is exactly the address a direct hash at
//     the parent level would produce, so aggregation adds no new error.
//
// Aggregated matrices additionally carry a small spill list for the rare
// case in which entries from θ sibling children overflow a parent bucket;
// spilled entries keep full fidelity and are scanned by queries, preserving
// the paper's no-additional-error guarantee at a bounded space cost (see
// DESIGN.md §3.4).
//
// A sealed aggregate never changes shape again, so it is held in a compact
// read-only layout in the manner of a CSR sparse matrix: only the occupied
// entries with per-bucket offsets and sorted views of the spill list; the
// column index ColSum scans is built by the first ColSum, as most sealed
// aggregates never meet one. Aggregate builds that layout directly from the
// children, without a dense slab, and nothing else builds it: a snapshot
// holds no aggregates. The Pool recycles dense slabs, which are then only
// those of leaves and overflow blocks. A dense slab also keeps a presence
// filter over its entries (note), so a probe skips the slots of a leaf that
// cannot hold its key.
package matrix

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"higgs/internal/hashing"
)

// Config sizes a compressed matrix.
type Config struct {
	D     uint32 // dimension (d×d buckets); power of two
	B     int    // entries per bucket (paper b); 1..255
	Maps  int    // mapping positions per vertex (paper r); 1..16, ≤ D
	FBits uint   // fingerprint bits stored at this level (paper F_l); 1..32
	Timed bool   // leaf matrix: entries carry a time offset
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case !hashing.IsPow2(c.D):
		return fmt.Errorf("matrix: D = %d is not a power of two", c.D)
	case c.B < 1 || c.B > math.MaxUint8: // a bucket's fill is one byte
		return fmt.Errorf("matrix: B = %d, need 1..255", c.B)
	case c.Maps < 1 || c.Maps > 16:
		return fmt.Errorf("matrix: Maps = %d, need 1..16", c.Maps)
	case uint32(c.Maps) > c.D:
		return fmt.Errorf("matrix: Maps = %d exceeds D = %d", c.Maps, c.D)
	case c.FBits < 1 || c.FBits > 32:
		return fmt.Errorf("matrix: FBits = %d, need 1..32", c.FBits)
	default:
		return nil
	}
}

// slab is the backing of one matrix, one column per entry field; slot
// (row*D + col)*B + k of every column belongs to the same entry. The
// fingerprint pair and the index pair identify the edge; offs holds the
// arrival offset from the matrix start time and exists only for timed
// matrices. fills is the occupied prefix length per bucket (len D*D) and is
// the only record of occupancy: every column is zero at and beyond a
// bucket's fill, so a free slot reads as key 0 with weight 0. filter is the
// presence filter of a dense slab (note) and nil in a frozen one.
type slab struct {
	keys   []uint64 // fpS | fpD<<32
	ws     []int64
	idxs   []uint8  // (i << 4) | j: mapping-position pair
	offs   []uint32 // nil when untimed
	fills  []uint8
	filter []uint64 // one byte per slot
}

func newSlab(n, b int, timed bool) slab {
	s := slab{
		keys:   make([]uint64, n),
		ws:     make([]int64, n),
		idxs:   make([]uint8, n),
		fills:  make([]uint8, n/b),
		filter: make([]uint64, (n+7)/8),
	}
	if timed {
		s.offs = make([]uint32, n)
	}
	return s
}

// heapBytes is the size of the backing arrays the slab holds.
func (s *slab) heapBytes() int64 {
	return int64(cap(s.keys))*8 + int64(cap(s.ws))*8 + int64(cap(s.idxs)) +
		int64(cap(s.offs))*4 + int64(cap(s.fills)) + int64(cap(s.filter))*8
}

// The presence filter is a blocked Bloom filter over a dense slab's slot
// entries. It holds three items per entry — the source endpoint, the
// destination endpoint and the edge, each endpoint packed as spillKey packs
// it — and an item sets two bits of one 64-bit word. Entries are only ever
// noted, never removed (Sub keeps a slot at weight 0), so the filter never
// rules out an entry the slots hold; a probe it rules out skips the slot
// walk. Spill entries are not noted: the kernels scan the spill list
// whatever the filter says.

// dstSalt keeps a vertex's destination item apart from its source item.
const dstSalt = 0x9e3779b97f4a7c15

// mixItem spreads an item over the filter: the multiply carries every input
// bit into the high half, which picks the word, and the xor folds the high
// half into the low bits, which pick the two bits. An endpoint is already a
// hash's fingerprint and address, and on benchMatrix's leaf fixture the
// full murmur3 finalizer ruled out no more absent items than this one
// multiply: about 90 % of absent edges by the edge item alone, 88–89 % of
// absent vertices.
func mixItem(x uint64) uint64 {
	x *= 0xff51afd7ed558ccd
	return x ^ x>>32
}

func srcItem(src uint64) uint64       { return mixItem(src) }
func dstItem(dst uint64) uint64       { return mixItem(dst ^ dstSalt) }
func edgeItem(src, dst uint64) uint64 { return mixItem(src*0xbf58476d1ce4e5b9 + dst) }

// filterBits returns the word of an n-word filter that item h sets, from the
// high half of h, and the two bits it sets there, from the low twelve bits.
func filterBits(h uint64, n int) (int, uint64) {
	return int((h >> 32) * uint64(n) >> 32), 1<<(h&63) | 1<<(h>>6&63)
}

// note records the slot entry of endpoints src and dst.
func (s *slab) note(src, dst uint64) {
	f := s.filter
	ws, bs := filterBits(srcItem(src), len(f))
	wd, bd := filterBits(dstItem(dst), len(f))
	we, be := filterBits(edgeItem(src, dst), len(f))
	f[ws] |= bs
	f[wd] |= bd
	f[we] |= be
}

// mayHold reports whether item h can be in the filter. A frozen slab has
// none, so callers test filter for nil first and skip the item's hash.
func (s *slab) mayHold(h uint64) bool {
	w, bits := filterBits(h, len(s.filter))
	return s.filter[w]&bits == bits
}

// mayHoldEdge reports whether the edge from src to dst can be in the
// filter. A held edge's endpoints were noted with it, so their items must
// pass too; testing them after the edge's own item rules out most of the
// absent edges that item passes by chance.
func (s *slab) mayHoldEdge(src, dst uint64) bool {
	return s.mayHold(edgeItem(src, dst)) && s.mayHold(srcItem(src)) && s.mayHold(dstItem(dst))
}

func packKey(fpS, fpD uint32) uint64 { return uint64(fpS) | uint64(fpD)<<32 }

// spillEntry preserves an edge that could not be placed during aggregation.
// It stores base addresses directly so it can be promoted further.
type spillEntry struct {
	fpS, fpD     uint32
	baseS, baseD uint32
	w            int64
}

// spillRef is one spill entry in a sorted view: the packed base<<32 | fp key
// of the endpoint the view is ordered by, the other endpoint's key, and the
// entry's position in the spill list, which keeps the weight Sub changes.
type spillRef struct {
	key, other uint64
	at         uint32
}

// frozen is the read-only layout of a sealed aggregate (Aggregate).
// The slab's keys, ws and idxs then hold only the occupied entries,
// bucket-major and in fill order within a bucket, and its fills is nil:
// start replaces it.
type frozen struct {
	start []uint32   // D²+1 offsets: bucket b holds entries start[b]:start[b+1]
	bySrc []spillRef // the spill list ordered by source key
	byDst []spillRef // the spill list ordered by destination key
	// cols is the column index, nil until the first ColSum builds it under
	// colsOnce and then sets indexed, which publishes it. Readers holding
	// only a shared lock may race to that first ColSum: one builds, the
	// others wait for it, and every later call reads indexed and cols.
	cols     *colIndex
	indexed  atomic.Bool
	colsOnce sync.Once
}

// colIndex is a frozen matrix's column index: every entry's destination
// fingerprint copied column-major, so ColSum scans contiguous uint32s and
// touches idxs and ws only on a fingerprint match.
type colIndex struct {
	start []uint32 // D+1 offsets into fps and at, one run per column
	fps   []uint32 // every entry's destination fingerprint, column by column
	at    []uint32 // the entry each fps element belongs to
}

// Matrix is a compressed matrix. It is not safe for concurrent mutation;
// concurrent reads are safe once construction/aggregation has finished.
//
// Within every bucket the occupied slots form a prefix: entries are only
// ever appended at the first free slot and deletion (Sub) decrements
// weights without vacating slots. On a dense matrix everything but RowSum and
// ColSum stays inside the prefix fills records; those two sweep whole
// buckets, because a free slot is all zeros and adds nothing to any sum. A
// frozen matrix (Aggregate) stores nothing but the prefixes, so every
// kernel reads occupied entries only.
//
// First fit: every stored entry lies at or before the first non-full bucket
// of its own candidate walk (find has the proof). find and EdgeSum end their
// walk there; Decode refuses a matrix that breaks it.
type Matrix struct {
	cfg Config
	lcg hashing.LCG
	slab
	frz    *frozen // set by Aggregate
	spill  []spillEntry
	count  int   // used slots
	startT int64 // reference time for offsets (timed matrices)
	added  int64 // items accepted (including merged duplicates)
}

// New allocates a zeroed matrix. For timed matrices, startT anchors entry
// offsets; untimed matrices ignore it.
func New(cfg Config, startT int64) (*Matrix, error) {
	return NewIn(nil, cfg, startT)
}

// NewIn is New drawing the column backing from p when non-nil. Slabs
// obtained from a pool are already zeroed (Pool.put clears them), so
// steady-state reuse performs no allocation and no memclr on this path.
func NewIn(p *Pool, cfg Config, startT int64) (*Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := int(cfg.D) * int(cfg.D) * cfg.B
	return &Matrix{
		cfg:    cfg,
		lcg:    hashing.MustLCG(cfg.D),
		slab:   p.get(n, cfg.B, cfg.Timed),
		startT: startT,
	}, nil
}

// Release returns the matrix's slab backing to p for reuse and neutralizes
// the matrix. The caller must guarantee no further access; p may be nil, in
// which case the backing is simply dropped for the GC. A frozen matrix's
// arrays are sized by its entry count, so they are dropped too.
func (m *Matrix) Release(p *Pool) {
	if m.frz == nil {
		p.put(m.slab)
	}
	m.slab, m.spill, m.frz = slab{}, nil, nil
	m.count = 0
}

// newFrozen allocates the bucket offsets of a matrix of d×d buckets, bucket
// b holding fills[b] entries.
func newFrozen(d int, fills []uint8) *frozen {
	f := &frozen{start: make([]uint32, d*d+1)}
	var at uint32
	for bkt, fill := range fills {
		f.start[bkt] = at
		at += uint32(fill)
	}
	f.start[d*d] = at
	return f
}

// sortSpill builds the sorted views of spill.
func (f *frozen) sortSpill(spill []spillEntry) {
	ns := len(spill)
	if ns == 0 {
		return
	}
	refs := make([]spillRef, 2*ns)
	f.bySrc, f.byDst = refs[:ns:ns], refs[ns:]
	for i := range spill {
		sp := &spill[i]
		src, dst := uint64(sp.baseS)<<32|uint64(sp.fpS), uint64(sp.baseD)<<32|uint64(sp.fpD)
		f.bySrc[i] = spillRef{key: src, other: dst, at: uint32(i)}
		f.byDst[i] = spillRef{key: dst, other: src, at: uint32(i)}
	}
	slices.SortFunc(f.bySrc, byKey)
	slices.SortFunc(f.byDst, byKey)
}

// columns returns f's column index over keys, the matrix's entries where
// start puts them, building it on the first call; a racing caller returns
// only once it is built.
func (f *frozen) columns(d int, keys []uint64) *colIndex {
	if !f.indexed.Load() {
		f.colsOnce.Do(func() {
			f.cols = newColIndex(d, f.start, keys)
			f.indexed.Store(true)
		})
	}
	return f.cols
}

// newColIndex deals every destination fingerprint of keys to its column, in
// bucket order: one pass over start counts each column's entries into
// start[col+1], summed to the offsets after it, and a second deals them.
// start[c] is column c's write cursor and ends at column c+1's offset; the
// shift restores it. The three arrays share one allocation.
func newColIndex(d int, start []uint32, keys []uint64) *colIndex {
	n := len(keys)
	u32 := make([]uint32, d+1+2*n)
	c := &colIndex{start: u32[: d+1 : d+1], fps: u32[d+1 : d+1+n : d+1+n], at: u32[d+1+n:]}
	nb := len(start) - 1
	for bkt := 0; bkt < nb; bkt++ {
		c.start[bkt&(d-1)+1] += start[bkt+1] - start[bkt]
	}
	for col := 1; col <= d; col++ {
		c.start[col] += c.start[col-1]
	}
	for bkt := 0; bkt < nb; bkt++ {
		col := bkt & (d - 1)
		for e := start[bkt]; e < start[bkt+1]; e++ {
			at := c.start[col]
			c.fps[at], c.at[at] = uint32(keys[e]>>32), e
			c.start[col] = at + 1
		}
	}
	copy(c.start[1:], c.start[:d])
	c.start[0] = 0
	return c
}

func byKey(a, b spillRef) int { return cmp.Compare(a.key, b.key) }

// spillKey packs an endpoint the way the sorted spill views key it.
func (m *Matrix) spillKey(fp, base uint32) uint64 {
	return uint64(base&(m.cfg.D-1))<<32 | uint64(fp)
}

// spillRun returns the run of a sorted spill view whose key is key.
func spillRun(view []spillRef, key uint64) []spillRef {
	lo, hi := 0, len(view)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); view[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	hi = lo
	for hi < len(view) && view[hi].key == key {
		hi++
	}
	return view[lo:hi]
}

// bucket returns where bucket b's entries begin and how many it holds.
func (m *Matrix) bucket(b int) (lo, fill int) {
	if f := m.frz; f != nil {
		lo = int(f.start[b])
		return lo, int(f.start[b+1]) - lo
	}
	return b * m.cfg.B, int(m.fills[b])
}

// Cfg returns the matrix configuration.
func (m *Matrix) Cfg() Config { return m.cfg }

// StartT returns the reference time of a timed matrix.
func (m *Matrix) StartT() int64 { return m.startT }

// Count returns the number of occupied slots (spill excluded).
func (m *Matrix) Count() int { return m.count }

// SpillCount returns the number of spilled entries.
func (m *Matrix) SpillCount() int { return len(m.spill) }

// Capacity returns the total number of slots of the matrix's geometry,
// frozen or not.
func (m *Matrix) Capacity() int { return int(m.cfg.D) * int(m.cfg.D) * m.cfg.B }

// Utilization returns occupied slots over capacity (paper §V-A, E(α)).
func (m *Matrix) Utilization() float64 {
	return float64(m.count) / float64(m.Capacity())
}

// Added returns the number of items this matrix accepted, counting merges.
func (m *Matrix) Added() int64 { return m.added }

func packIdx(i, j int) uint8 { return uint8(i<<4 | j) }

// find walks the edge's r×r candidate buckets for its entry (at offset off,
// for timed matrices). It returns the entry's slot and found = true, or else
// the first free slot along the walk together with the index pair an entry
// placed there must carry, slot = -1 when every candidate bucket is full.
//
// The walk ends at its first non-full bucket p, match or not. Fills only
// grow, so p had room whenever an entry with this walk was placed, and
// placement takes the first bucket with room: every such entry — a match
// included — sits at or before p. If none matches there, p's first free slot
// is the one a walk over all r×r buckets would have settled on.
func (m *Matrix) find(fpS, baseS, fpD, baseD, off uint32) (slot int, idx uint8, found bool) {
	// Probe only the occupied prefix of each candidate bucket: a writer
	// must never mistake a free slot (key 0, index pair 0) for fingerprint
	// pair (0, 0) at position (0, 0).
	key := packKey(fpS, fpD)
	d := int(m.cfg.D)
	dMask := m.cfg.D - 1
	bsz := m.cfg.B
	keys := m.keys
	rowS := baseS & dMask
	for i := 0; i < m.cfg.Maps; i++ {
		colD := baseD & dMask
		rowBase := int(rowS) * d
		for j := 0; j < m.cfg.Maps; j++ {
			base, fill := m.bucket(rowBase + int(colD))
			ij := packIdx(i, j)
			for k, kk := range keys[base : base+fill] {
				if kk == key && m.idxs[base+k] == ij && (m.offs == nil || m.offs[base+k] == off) {
					return base + k, ij, true
				}
			}
			if fill < bsz {
				return base + fill, ij, false
			}
			colD = m.lcg.Next(colD)
		}
		rowS = m.lcg.Next(rowS)
	}
	return -1, 0, false
}

// Add inserts weight w for the edge identified by the fingerprint pair and
// base address pair, arriving at offset off (ignored when untimed). It
// aggregates into an existing matching entry when possible, otherwise takes
// the first free slot along the r×r candidate sequence. It reports false
// when every candidate bucket is full — the signal that HIGGS must open a
// new leaf (or overflow block). Add panics on a frozen matrix.
func (m *Matrix) Add(fpS, baseS, fpD, baseD uint32, off uint32, w int64) bool {
	if m.frz != nil {
		panic("matrix: Add to a frozen matrix")
	}
	k, idx, found := m.find(fpS, baseS, fpD, baseD, off)
	switch {
	case found:
		m.ws[k] += w
	case k >= 0:
		m.keys[k], m.ws[k], m.idxs[k] = packKey(fpS, fpD), w, idx
		if m.offs != nil {
			m.offs[k] = off
		}
		m.note(m.spillKey(fpS, baseS), m.spillKey(fpD, baseD))
		m.fills[k/m.cfg.B]++
		m.count++
	default:
		return false
	}
	m.added++
	return true
}

// Sub subtracts weight w from the entry matching the edge (and offset, for
// timed matrices): the slot find reaches, else the first match in spill-list
// order. It reports whether a matching entry was found. Entries whose weight
// reaches zero remain allocated, mirroring sketch deletion.
func (m *Matrix) Sub(fpS, baseS, fpD, baseD uint32, off uint32, w int64) bool {
	if k, _, found := m.find(fpS, baseS, fpD, baseD, off); found {
		m.ws[k] -= w
		return true
	}
	if sp := m.findSpill(fpS, baseS, fpD, baseD); sp != nil {
		sp.w -= w
		return true
	}
	return false
}

// findSpill returns the spill entry of the edge, nil when there is none.
func (m *Matrix) findSpill(fpS, baseS, fpD, baseD uint32) *spillEntry {
	baseSm, baseDm := baseS&(m.cfg.D-1), baseD&(m.cfg.D-1)
	for k := range m.spill {
		sp := &m.spill[k]
		if sp.fpS == fpS && sp.fpD == fpD && sp.baseS == baseSm && sp.baseD == baseDm {
			return sp
		}
	}
	return nil
}

// window prepares a probe over the offset range [loOff, hiOff]: the offset
// column to filter by — nil when every stored entry qualifies, so a fully
// covered matrix never reads it — and whether any stored entry can qualify
// at all (an untimed matrix holds every entry at offset 0).
func (m *Matrix) window(loOff, hiOff int64) (offs []uint32, some bool) {
	if loOff <= 0 && hiOff >= math.MaxUint32 {
		return nil, true
	}
	return m.offs, m.offs != nil || (loOff <= 0 && hiOff >= 0)
}

func inWindow(offs []uint32, k int, loOff, hiOff int64) bool {
	return offs == nil || (int64(offs[k]) >= loOff && int64(offs[k]) <= hiOff)
}

// EdgeSum returns the aggregated weight of the edge within the offset range
// [loOff, hiOff] (pass math.MinInt64/MaxInt64 for untimed matrices or fully
// covered ranges). Like find, it stops after the first candidate bucket with
// room: no entry of this edge lies beyond it. A dense matrix whose filter
// rules the edge or either endpoint out walks no bucket.
func (m *Matrix) EdgeSum(fpS, baseS, fpD, baseD uint32, loOff, hiOff int64) int64 {
	var sum int64
	if offs, some := m.window(loOff, hiOff); some && (m.filter == nil || m.mayHoldEdge(m.spillKey(fpS, baseS), m.spillKey(fpD, baseD))) {
		key := packKey(fpS, fpD)
		d, bsz := int(m.cfg.D), m.cfg.B
		rowS := baseS & (m.cfg.D - 1)
	walk:
		for i := 0; i < m.cfg.Maps; i++ {
			colD := baseD & (m.cfg.D - 1)
			for j := 0; j < m.cfg.Maps; j++ {
				base, fill := m.bucket(int(rowS)*d + int(colD))
				idx := packIdx(i, j)
				for k, kk := range m.keys[base : base+fill] {
					if kk == key && m.idxs[base+k] == idx && inWindow(offs, base+k, loOff, hiOff) {
						sum += m.ws[base+k]
					}
				}
				if fill < bsz {
					break walk
				}
				colD = m.lcg.Next(colD)
			}
			rowS = m.lcg.Next(rowS)
		}
	}
	if f := m.frz; f != nil {
		dst := m.spillKey(fpD, baseD)
		for _, r := range spillRun(f.bySrc, m.spillKey(fpS, baseS)) {
			if r.other == dst {
				sum += m.spill[r.at].w
			}
		}
		return sum
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

// RowSum returns the aggregated weight of all entries whose source matches
// the fingerprint/base pair within the offset range — the vertex (outgoing)
// query primitive (paper Eq. 2). A row's slots are contiguous, so each of
// the r candidate rows is one linear pass: over all D·B slots when dense,
// over the occupied ones when frozen. A dense matrix whose filter rules the
// source out scans no row.
func (m *Matrix) RowSum(fp, base uint32, loOff, hiOff int64) int64 {
	var sum int64
	if offs, some := m.window(loOff, hiOff); some && (m.filter == nil || m.mayHold(srcItem(m.spillKey(fp, base)))) {
		d, rowLen := int(m.cfg.D), int(m.cfg.D)*m.cfg.B
		row := base & (m.cfg.D - 1)
		for i := 0; i < m.cfg.Maps; i++ {
			lo, hi := int(row)*rowLen, int(row+1)*rowLen
			if f := m.frz; f != nil {
				lo, hi = int(f.start[int(row)*d]), int(f.start[int(row+1)*d])
			}
			for k, kk := range m.keys[lo:hi] {
				if uint32(kk) == fp && int(m.idxs[lo+k]>>4) == i && inWindow(offs, lo+k, loOff, hiOff) {
					sum += m.ws[lo+k]
				}
			}
			row = m.lcg.Next(row)
		}
	}
	if f := m.frz; f != nil {
		for _, r := range spillRun(f.bySrc, m.spillKey(fp, base)) {
			sum += m.spill[r.at].w
		}
		return sum
	}
	baseM := base & (m.cfg.D - 1)
	for k := range m.spill {
		if m.spill[k].fpS == fp && m.spill[k].baseS == baseM {
			sum += m.spill[k].w
		}
	}
	return sum
}

// ColSum is the incoming-vertex analogue of RowSum. A dense column's buckets
// lie D·B slots apart, and none is scanned when the filter rules the
// destination out; a frozen matrix scans its column index instead, which
// the first ColSum builds (IndexBytes then counts it).
func (m *Matrix) ColSum(fp, base uint32, loOff, hiOff int64) int64 {
	if f := m.frz; f != nil {
		return m.colSumFrozen(f.columns(int(m.cfg.D), m.keys), fp, base, loOff, hiOff)
	}
	var sum int64
	if offs, some := m.window(loOff, hiOff); some && (m.filter == nil || m.mayHold(dstItem(m.spillKey(fp, base)))) {
		bsz := m.cfg.B
		rowLen := int(m.cfg.D) * bsz
		col := base & (m.cfg.D - 1)
		for j := 0; j < m.cfg.Maps; j++ {
			for lo := int(col) * bsz; lo < len(m.keys); lo += rowLen {
				for k, kk := range m.keys[lo : lo+bsz] {
					if uint32(kk>>32) == fp && int(m.idxs[lo+k]&0xf) == j && inWindow(offs, lo+k, loOff, hiOff) {
						sum += m.ws[lo+k]
					}
				}
			}
			col = m.lcg.Next(col)
		}
	}
	baseM := base & (m.cfg.D - 1)
	for k := range m.spill {
		if m.spill[k].fpD == fp && m.spill[k].baseD == baseM {
			sum += m.spill[k].w
		}
	}
	return sum
}

// colSumFrozen is ColSum over the column index ci: a candidate column's
// destination fingerprints are contiguous, and an entry's index pair and
// weight are read only when its fingerprint matches. ColSum takes the index
// first, which keeps this function free of calls.
//
// The fingerprint loop is six instructions, and its speed hangs on where
// they sit: straddling a 64-byte line, BenchmarkColSum/agg6 ran 30 % slower
// (Go 1.24, amd64, Xeon). Slicing at to the column run, as fps is, places
// the loop inside one 32-byte block, so no placement of the function splits
// it; check the loop's offsets after editing this function (DESIGN.md §3.4).
func (m *Matrix) colSumFrozen(ci *colIndex, fp, base uint32, loOff, hiOff int64) int64 {
	var sum int64
	if _, some := m.window(loOff, hiOff); some {
		col := base & (m.cfg.D - 1)
		for j := 0; j < m.cfg.Maps; j++ {
			lo, hi := ci.start[col], ci.start[col+1]
			at := ci.at[lo:hi]
			for k, cf := range ci.fps[lo:hi] {
				if cf == fp {
					if e := at[k]; int(m.idxs[e]&0xf) == j {
						sum += m.ws[e]
					}
				}
			}
			col = m.lcg.Next(col)
		}
	}
	for _, r := range spillRun(m.frz.byDst, m.spillKey(fp, base)) {
		sum += m.spill[r.at].w
	}
	return sum
}

// Promote shifts rbits fingerprint bits into the base address (paper Alg. 2
// line 5, Example 5): the leftmost rbits of the fingerprint become the
// rightmost bits of the address. childFBits is the fingerprint width at the
// child level.
func Promote(fp, base uint32, childFBits, rbits uint) (pfp, pbase uint32) {
	if rbits == 0 {
		return fp, base
	}
	pfp = fp & (1<<(childFBits-rbits) - 1)
	pbase = base<<rbits | fp>>(childFBits-rbits)
	return pfp, pbase
}

// EntryBits returns the packed size in bits of one stored entry at this
// level, the β of paper Theorem 1: two fingerprints, the index pair, the
// weight, and (timed only) the offset.
func (m *Matrix) EntryBits() int {
	bits := 2*int(m.cfg.FBits) + int(hashing.IndexPairBits(m.cfg.Maps)) + 64
	if m.cfg.Timed {
		bits += 32
	}
	return bits
}

// SpaceBytes returns the packed structural size the paper's space
// comparison counts: all slots at this level's entry width plus spilled
// entries (fingerprints, explicit addresses, weight). The frozen layout
// leaves it unchanged: the paper's matrix has every slot.
func (m *Matrix) SpaceBytes() int64 {
	slotBits := int64(m.Capacity()) * int64(m.EntryBits())
	addrBits := int64(2 * hashing.Log2(m.cfg.D))
	spillBits := int64(len(m.spill)) * (2*int64(m.cfg.FBits) + addrBits + 64)
	return (slotBits + spillBits + 7) / 8
}

// Sizes of the Go representation HeapBytes adds to the column backing;
// TestHeapBytes pins them to the types.
const (
	matrixSize   = 264 // struct Matrix
	spillSize    = 24  // struct spillEntry
	frozenSize   = 96  // struct frozen
	colIndexSize = 72  // struct colIndex
	spillRefSize = 24  // struct spillRef
)

// HeapBytes returns the resident size of the Go representation: the
// backing arrays actually held plus the structs themselves, a frozen
// matrix's column index only once ColSum has built it.
func (m *Matrix) HeapBytes() int64 {
	n := m.slab.heapBytes() + int64(cap(m.spill))*spillSize + matrixSize + m.IndexBytes()
	if f := m.frz; f != nil {
		n += int64(cap(f.start))*4 + int64(cap(f.bySrc)+cap(f.byDst))*spillRefSize + frozenSize
	}
	return n
}

// IndexBytes returns the resident size of a frozen matrix's column index: 0
// until the first ColSum builds it, and always 0 on a dense matrix.
func (m *Matrix) IndexBytes() int64 {
	if m.frz == nil || !m.frz.indexed.Load() {
		return 0
	}
	c := m.frz.cols
	return int64(cap(c.start)+cap(c.fps)+cap(c.at))*4 + colIndexSize
}

// ForEach invokes fn for every occupied slot, buckets row-major and slots
// in fill order, with the entry's fingerprints, recovered base addresses,
// offset (0 when untimed), and weight, then for every spill entry (offset
// 0). Iteration order is deterministic; it is also the snapshot order.
func (m *Matrix) ForEach(fn func(fpS, baseS, fpD, baseD uint32, off uint32, w int64)) {
	d := int(m.cfg.D)
	seen := 0
	for bkt := 0; bkt < d*d && seen < m.count; bkt++ {
		base, fill := m.bucket(bkt)
		if fill == 0 {
			continue
		}
		seen += fill
		row, col := uint32(bkt/d), uint32(bkt%d)
		for k := base; k < base+fill; k++ {
			var off uint32
			if m.offs != nil {
				off = m.offs[k]
			}
			i, j := int(m.idxs[k]>>4), int(m.idxs[k]&0xf)
			fn(uint32(m.keys[k]), m.lcg.Base(row, i), uint32(m.keys[k]>>32), m.lcg.Base(col, j), off, m.ws[k])
		}
	}
	for k := range m.spill {
		sp := &m.spill[k]
		fn(sp.fpS, sp.baseS, sp.fpD, sp.baseD, 0, sp.w)
	}
}

// MaxOffset returns the largest representable offset of a timed matrix.
func MaxOffset() int64 { return math.MaxUint32 }
