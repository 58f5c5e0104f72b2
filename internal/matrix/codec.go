package matrix

import (
	"fmt"
	"math"

	"higgs/internal/wire"
)

// matrixTag guards matrix records inside snapshot streams.
const matrixTag = 0x4d58 // "MX"

// MaxSlots bounds the D²·B slots of a matrix a decoder accepts, guarding
// allocations against corrupted or adversarial inputs: a matrix that big
// (several GB dense) is not something this library ever writes.
const MaxSlots = 1 << 28

// Encode appends the matrix to w in the snapshot wire format: geometry,
// then only the occupied slots (sparse encoding), then the spill list. A
// frozen matrix writes the bytes its dense form did.
func (m *Matrix) Encode(w *wire.Writer) {
	w.U64(matrixTag)
	w.U32(m.cfg.D)
	w.Int(m.cfg.B)
	w.Int(m.cfg.Maps)
	w.U64(uint64(m.cfg.FBits))
	w.Bool(m.cfg.Timed)
	w.I64(m.startT)
	w.I64(m.added)
	w.Int(m.count)
	for bkt := 0; bkt < int(m.cfg.D)*int(m.cfg.D); bkt++ {
		lo, fill := m.bucket(bkt)
		for k := lo; k < lo+fill; k++ {
			w.Int(bkt*m.cfg.B + k - lo)
			w.U32(uint32(m.keys[k]))
			w.U32(uint32(m.keys[k] >> 32))
			if m.offs != nil {
				w.U32(m.offs[k])
			} else {
				w.U32(0)
			}
			w.I64(m.ws[k])
			w.U64(uint64(m.idxs[k]))
		}
	}
	w.Int(len(m.spill))
	for i := range m.spill {
		sp := &m.spill[i]
		w.U32(sp.fpS)
		w.U32(sp.fpD)
		w.U32(sp.baseS)
		w.U32(sp.baseD)
		w.I64(sp.w)
	}
}

// Decode reads a matrix written by Encode. Unless want is nil, the header
// must carry exactly the geometry *want, which is checked before anything
// is sized by it.
func Decode(r *wire.Reader, want *Config) (*Matrix, error) {
	r.Expect(matrixTag, "matrix tag")
	cfg := Config{
		D:     r.U32(),
		B:     r.Int(),
		Maps:  r.Int(),
		FBits: uint(r.U64()),
		Timed: r.Bool(),
	}
	startT := r.I64()
	added := r.I64()
	count := r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("matrix: decode header: %w", err)
	}
	if want != nil && cfg != *want {
		return nil, fmt.Errorf("matrix: decode: geometry %+v, want %+v", cfg, *want)
	}
	if cfg.B > 0 && cfg.D > 0 {
		if int64(cfg.D)*int64(cfg.D) > MaxSlots || int64(cfg.D)*int64(cfg.D)*int64(cfg.B) > MaxSlots {
			return nil, fmt.Errorf("matrix: decode: implausible geometry %d×%d×%d", cfg.D, cfg.D, cfg.B)
		}
	}
	m, err := New(cfg, startT)
	if err != nil {
		return nil, fmt.Errorf("matrix: decode: %w", err)
	}
	if count < 0 || count > len(m.keys) {
		return nil, fmt.Errorf("matrix: decode: count %d exceeds capacity %d", count, len(m.keys))
	}
	m.added = added
	// Matrices written by Encode list their entries in slot order and fill
	// every bucket front to back, so each entry must land on the next free
	// slot of its bucket, past the previous entry. Anything else — a
	// repeated slot, a gap, a reordering — is a corrupted or hand-crafted
	// snapshot, and fills, which the kernels trust, is built from nothing
	// but entries that passed.
	prev := -1
	for i := 0; i < count; i++ {
		k := r.Int()
		fpS, fpD, off := r.U32(), r.U32(), r.U32()
		w, idx := r.I64(), r.U64()
		if r.Err() != nil {
			break
		}
		if k >= len(m.keys) {
			return nil, fmt.Errorf("matrix: decode: slot index %d out of range %d", k, len(m.keys))
		}
		bkt := k / cfg.B
		if k <= prev || k != bkt*cfg.B+int(m.fills[bkt]) {
			return nil, fmt.Errorf("matrix: decode: slot %d is repeated, out of order, or leaves a gap in bucket %d", k, bkt)
		}
		if idx > math.MaxUint8 || int(idx>>4) >= cfg.Maps || int(idx&0xf) >= cfg.Maps || (off != 0 && !cfg.Timed) {
			return nil, fmt.Errorf("matrix: decode: slot %d carries index pair %#x, offset %d", k, idx, off)
		}
		prev = k
		m.keys[k], m.ws[k], m.idxs[k] = packKey(fpS, fpD), w, uint8(idx)
		if cfg.Timed {
			m.offs[k] = off
		}
		m.fills[bkt]++
	}
	m.count = count
	// Nothing is sized by the spill count: each entry is read before it is
	// appended, so a count beyond the input ends at the first failed read.
	nspill := r.Int()
	for i := 0; i < nspill && r.Err() == nil; i++ {
		m.spill = append(m.spill, spillEntry{
			fpS:   r.U32(),
			fpD:   r.U32(),
			baseS: r.U32(),
			baseD: r.U32(),
			w:     r.I64(),
		})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("matrix: decode: %w", err)
	}
	// find and EdgeSum stop at the first candidate bucket with room; an entry
	// parked behind one would be invisible to them, an under-count.
	for bkt, fill := range m.fills {
		for k := bkt * cfg.B; k < bkt*cfg.B+int(fill); k++ {
			if !m.firstFit(k) {
				return nil, fmt.Errorf("matrix: decode: slot %d sits behind a non-full candidate bucket", k)
			}
		}
	}
	return m, nil
}

// firstFit reports whether every candidate bucket that precedes the entry at
// slot k on its own walk is full. Buckets only fill, so this end state is
// necessary and sufficient for the entry to have been placed first fit.
func (m *Matrix) firstFit(k int) bool {
	d, bkt := int(m.cfg.D), k/m.cfg.B
	i, j := int(m.idxs[k]>>4), int(m.idxs[k]&0xf)
	rowS, baseD := m.lcg.Base(uint32(bkt/d), i), m.lcg.Base(uint32(bkt%d), j)
	for ii := 0; ii <= i; ii++ {
		colD := baseD
		for jj := 0; jj < m.cfg.Maps && (ii < i || jj < j); jj++ {
			if int(m.fills[int(rowS)*d+int(colD)]) < m.cfg.B {
				return false
			}
			colD = m.lcg.Next(colD)
		}
		rowS = m.lcg.Next(rowS)
	}
	return true
}
