package matrix

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"higgs/internal/wire"
)

func encodeBytes(m *Matrix) []byte {
	var w wire.Writer
	m.Encode(&w)
	return w
}

// decode decodes b as one matrix of any geometry.
func decode(b []byte) (*Matrix, error) {
	r := wire.NewReader(b)
	return Decode(&r, nil)
}

// fuzzSeeds returns encoded matrices covering both layouts: a timed leaf
// with full buckets, and an untimed aggregate that spilled.
func fuzzSeeds(t testing.TB) [][]byte {
	leaf := mustNew(t, Config{D: 4, B: 2, Maps: 2, FBits: 8, Timed: true}, 100)
	for k := uint32(0); k < 40; k++ {
		leaf.Add(k, k%4, k+7, (k+1)%4, k%9, int64(k)-3)
	}
	agg := mustNew(t, Config{D: 8, B: 1, Maps: 1, FBits: 7}, 0)
	for i := 0; i < 3; i++ {
		if err := agg.Absorb(leaf); err != nil {
			t.Fatal(err)
		}
	}
	if agg.SpillCount() == 0 {
		t.Fatal("seed aggregate did not spill")
	}
	empty := mustNew(t, Config{D: 2, B: 3, Maps: 1, FBits: 1}, -5)
	return [][]byte{encodeBytes(leaf), encodeBytes(agg), encodeBytes(empty)}
}

// TestDecodeRejects: an entry that is out of range, repeated, out of order
// or not the next free slot of its bucket is refused as it arrives, as are
// the fields Encode never writes — and so is a geometry whose slab would
// not fit, before anything is allocated for it. An entry that no first-fit
// Add could have left where it is — behind a candidate bucket with room, or
// at a position its walk does not have — is refused once all have arrived.
func TestDecodeRejects(t *testing.T) {
	header := func(w *wire.Writer, cfg Config, count int) {
		w.U64(matrixTag)
		w.U32(cfg.D)
		w.Int(cfg.B)
		w.Int(cfg.Maps)
		w.U64(uint64(cfg.FBits))
		w.Bool(cfg.Timed)
		w.I64(0) // startT
		w.I64(0) // added
		w.Int(count)
	}
	type entry struct {
		k        int
		off, idx uint64
	}
	timed := Config{D: 2, B: 2, Maps: 1, FBits: 8, Timed: true}
	untimed := Config{D: 2, B: 2, Maps: 1, FBits: 8}
	// Four candidates per edge; on D = 4 the LCG steps x → x+1, so the walk
	// of base pair (0, 0) is buckets 0, 1, 4, 5 at positions 00, 01, 10, 11.
	mmb := Config{D: 4, B: 1, Maps: 2, FBits: 8}
	for _, c := range []struct {
		name    string
		cfg     Config
		entries []entry
		ok      bool
	}{
		{"prefixes in slot order", timed, []entry{{0, 5, 0}, {1, 6, 0}, {4, 7, 0}}, true},
		{"out of range", timed, []entry{{8, 0, 0}}, false},
		{"repeated", timed, []entry{{0, 0, 0}, {0, 0, 0}}, false},
		{"gap", timed, []entry{{1, 0, 0}}, false},
		{"out of order", timed, []entry{{2, 0, 0}, {0, 0, 0}}, false},
		{"index pair wider than a byte", timed, []entry{{0, 0, 256}}, false},
		{"offset on an untimed entry", untimed, []entry{{0, 1, 0}}, false},
		{"untimed", untimed, []entry{{0, 0, 0}, {2, 0, 0}, {3, 0, 0}}, true},
		{"first fit along a walk", mmb, []entry{{0, 0, 0x00}, {1, 0, 0x01}, {4, 0, 0x10}}, true},
		{"behind an empty bucket", mmb, []entry{{1, 0, 0x01}}, false},
		{"behind a bucket with room, a row down", mmb, []entry{{0, 0, 0x00}, {4, 0, 0x10}}, false},
		{"column position beyond Maps", mmb, []entry{{0, 0, 0x02}}, false},
		{"row position beyond Maps", mmb, []entry{{0, 0, 0x20}}, false},
		{"implausible geometry", Config{D: 1 << 15, B: 1, Maps: 1, FBits: 8}, nil, false},
		{"bucket wider than a fill byte", Config{D: 2, B: 256, Maps: 1, FBits: 8}, nil, false},
	} {
		var w wire.Writer
		header(&w, c.cfg, len(c.entries))
		for _, e := range c.entries {
			w.Int(e.k)
			w.U32(1) // fpS
			w.U32(2) // fpD
			w.U64(e.off)
			w.I64(3)
			w.U64(e.idx)
		}
		w.Int(0) // spill
		m, err := decode(w)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
		if err == nil {
			zeroBeyondFill(t, m)
			checkFirstFit(t, m)
		}
	}
}

// FuzzMatrixDecode feeds arbitrary bytes to Decode. It must reject them or
// return a matrix whose fills add up to Count, whose columns are zero
// beyond every bucket's fill (what RowSum and ColSum's whole-bucket sweeps
// rely on), whose entries all sit first fit (what find and EdgeSum's early
// stop relies on: their answers equal the exhaustive walks'), and whose own
// encoding is a fixed point — byte-identical to the input
// wherever the input spent no more bytes than that encoding does.
func FuzzMatrixDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		flipped := bytes.Clone(seed)
		flipped[len(flipped)/3] ^= 0x41
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The geometry guard admits slabs of gigabytes; keep the fuzzer's
		// own memory bounded by not following it there (TestDecodeRejects
		// pins the guard itself).
		hdr := wire.NewReader(data)
		hdr.U64()
		if d, b := uint64(hdr.U32()), uint64(hdr.Int()); d*d*b > 1<<16 {
			return
		}
		r := wire.NewReader(data)
		m, err := Decode(&r, nil)
		if err != nil {
			return
		}
		zeroBeyondFill(t, m)
		checkFirstFit(t, m)
		m.ForEach(func(fpS, baseS, fpD, baseD, off uint32, _ int64) {
			k := refKey{fpS, baseS, fpD, baseD, off}
			sameFind(t, m, k)
			if got, want := m.EdgeSum(fpS, baseS, fpD, baseD, 0, math.MaxUint32), m.edgeSumExhaustive(fpS, baseS, fpD, baseD, 0, math.MaxUint32); got != want {
				t.Fatalf("EdgeSum(%+v) = %d, a sweep of every candidate slot finds %d", k, got, want)
			}
		})
		consumed := len(data) - r.Len()
		enc := encodeBytes(m)
		// Varints have one shortest form and Decode drops nothing, so the
		// encoding is never longer than what was read, and equally long
		// only when it is the same bytes.
		if len(enc) > consumed || (len(enc) == consumed && !bytes.Equal(enc, data[:consumed])) {
			t.Fatalf("decoded %d bytes, re-encoded to %d different ones", consumed, len(enc))
		}
		m2, err := decode(enc)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if enc2 := encodeBytes(m2); !bytes.Equal(enc, enc2) {
			t.Fatal("encoding is not a fixed point")
		}
		m.EdgeSum(0, 0, 0, 0, 0, 1)
		m.RowSum(0, 0, -1, 1<<40)
		m.ColSum(0, 0, 3, 3)
		m.ForEach(func(_, _, _, _, _ uint32, _ int64) {})
	})
}

// dupSpillSeed encodes an untimed aggregate with several mapping positions
// whose spill list repeats an identity and carries a base wider than D —
// what a crafted encoding can hold and Absorb never writes.
func dupSpillSeed(t testing.TB) []byte {
	m := mustNew(t, Config{D: 4, B: 1, Maps: 2, FBits: 8}, 0)
	for fp := uint32(1); fp <= 24; fp++ {
		m.addOrSpill(fp%5, fp%3, fp%7, fp%4, int64(fp))
	}
	if m.SpillCount() < 2 {
		t.Fatalf("seed spilled %d entries", m.SpillCount())
	}
	m.spill = append(m.spill, m.spill[0], spillEntry{fpS: 9, baseS: 5, fpD: 9, baseD: 1, w: 4}, m.spill[1])
	m.spill[len(m.spill)-1].w = -7
	return encodeBytes(m)
}

// FuzzFreeze: any untimed matrix Decode accepts answers the same once frozen
// — EdgeSum, RowSum and ColSum for every stored identity and a few absent
// ones, the ForEach sequence, the Encode bytes — and Sub changes the same
// entry in both forms: the slot find reaches, else the first spill entry in
// list order. Duplicate spill identities all count toward the sums. The
// frozen form answers first without a column index, which Freeze must not
// build and its first ColSum does, and after the Subs with one.
func FuzzFreeze(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add(dupSpillSeed(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr := wire.NewReader(data)
		hdr.U64()
		if d, b := uint64(hdr.U32()), uint64(hdr.Int()); d*d*b > 1<<16 {
			return // as in FuzzMatrixDecode
		}
		dense, err := decode(data)
		if err != nil || dense.cfg.Timed {
			return
		}
		fz, err := decode(data)
		if err != nil {
			t.Fatal(err)
		}
		fz.Freeze()
		if fz.IndexBytes() != 0 {
			t.Fatal("Freeze built a column index")
		}
		var stored []refKey
		dense.ForEach(func(fpS, baseS, fpD, baseD, _ uint32, _ int64) {
			stored = append(stored, refKey{fpS: fpS, baseS: baseS, fpD: fpD, baseD: baseD})
		})
		sameAnswers(t, dense, fz, stored)
		if fz.IndexBytes() == 0 {
			t.Fatal("ColSum on a frozen matrix built no column index")
		}
		for _, k := range stored {
			if a, b := dense.Sub(k.fpS, k.baseS, k.fpD, k.baseD, 0, 1), fz.Sub(k.fpS, k.baseS, k.fpD, k.baseD, 0, 1); a != b {
				t.Fatalf("Sub(%+v): dense %v, frozen %v", k, a, b)
			}
		}
		sameAnswers(t, dense, fz, stored)
	})
}

// sameAnswers fails unless the frozen matrix fz encodes, iterates and sums
// like dense, for the stored identities and variations of each that are
// mostly absent: another fingerprint, another base, an unmasked base.
func sameAnswers(t *testing.T, dense, fz *Matrix, stored []refKey) {
	t.Helper()
	if !bytes.Equal(encodeBytes(dense), encodeBytes(fz)) {
		t.Fatal("frozen matrix encodes to different bytes")
	}
	type rec struct {
		k refKey
		w int64
	}
	var want, got []rec
	dense.ForEach(func(fpS, baseS, fpD, baseD, off uint32, w int64) {
		want = append(want, rec{refKey{fpS, baseS, fpD, baseD, off}, w})
	})
	fz.ForEach(func(fpS, baseS, fpD, baseD, off uint32, w int64) {
		got = append(got, rec{refKey{fpS, baseS, fpD, baseD, off}, w})
	})
	if !slices.Equal(want, got) {
		t.Fatalf("ForEach: frozen visits %v, dense %v", got, want)
	}
	d := dense.cfg.D
	probes := []refKey{{}}
	for _, k := range stored {
		probes = append(probes, k,
			refKey{fpS: k.fpS ^ 1, baseS: k.baseS, fpD: k.fpD, baseD: k.baseD},
			refKey{fpS: k.fpS, baseS: k.baseS, fpD: k.fpD, baseD: k.baseD + 1},
			refKey{fpS: k.fpS, baseS: k.baseS + d, fpD: k.fpD, baseD: k.baseD + d})
	}
	for _, win := range [][2]int64{{math.MinInt64, math.MaxInt64}, {-3, 4}, {1, 5}} {
		lo, hi := win[0], win[1]
		for _, p := range probes {
			if a, b := dense.EdgeSum(p.fpS, p.baseS, p.fpD, p.baseD, lo, hi), fz.EdgeSum(p.fpS, p.baseS, p.fpD, p.baseD, lo, hi); a != b {
				t.Fatalf("EdgeSum(%+v, [%d,%d]): dense %d, frozen %d", p, lo, hi, a, b)
			}
			if a, b := dense.RowSum(p.fpS, p.baseS, lo, hi), fz.RowSum(p.fpS, p.baseS, lo, hi); a != b {
				t.Fatalf("RowSum(%d@%d, [%d,%d]): dense %d, frozen %d", p.fpS, p.baseS, lo, hi, a, b)
			}
			if a, b := dense.ColSum(p.fpD, p.baseD, lo, hi), fz.ColSum(p.fpD, p.baseD, lo, hi); a != b {
				t.Fatalf("ColSum(%d@%d, [%d,%d]): dense %d, frozen %d", p.fpD, p.baseD, lo, hi, a, b)
			}
		}
	}
}

// TestCodecRoundTrip: the seeds — both layouts, full buckets, spill,
// repeated spill identities — decode and re-encode to the same bytes.
func TestCodecRoundTrip(t *testing.T) {
	for i, seed := range append(fuzzSeeds(t), dupSpillSeed(t)) {
		m, err := decode(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		zeroBeyondFill(t, m)
		if !bytes.Equal(encodeBytes(m), seed) {
			t.Fatalf("seed %d does not re-encode to itself", i)
		}
	}
}
