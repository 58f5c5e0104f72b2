package matrix

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"higgs/internal/wire"
)

// absorbed is the seal as it was built before Aggregate: a dense matrix of
// geometry cfg absorbs the children in turn, then freezes.
func absorbed(cfg Config, children []*Matrix) (*Matrix, error) {
	m, err := New(cfg, 0)
	if err != nil {
		return nil, err
	}
	for _, c := range children {
		if err := m.Absorb(c); err != nil {
			return nil, err
		}
	}
	m.Freeze()
	return m, nil
}

// sameAggregate fails unless got is want: the same Encode bytes, Added,
// Count, SpillCount, ForEach sequence and sums over every stored identity and
// variations of each (sameAnswers), and the same frozen layout. got's
// HeapBytes may only be lower: its spill list has no spare capacity.
func sameAggregate(t *testing.T, want, got *Matrix) {
	t.Helper()
	if got.Added() != want.Added() || got.Count() != want.Count() || got.SpillCount() != want.SpillCount() {
		t.Fatalf("Aggregate: Added %d, Count %d, SpillCount %d; Absorb: %d, %d, %d",
			got.Added(), got.Count(), got.SpillCount(), want.Added(), want.Count(), want.SpillCount())
	}
	var stored []refKey
	want.ForEach(func(fpS, baseS, fpD, baseD, _ uint32, _ int64) {
		stored = append(stored, refKey{fpS: fpS, baseS: baseS, fpD: fpD, baseD: baseD})
	})
	sameAnswers(t, want, got, stored)
	if !reflect.DeepEqual(got.frz, want.frz) {
		t.Fatal("Aggregate's frozen layout differs from Freeze's")
	}
	if got.HeapBytes() > want.HeapBytes() {
		t.Fatalf("Aggregate holds %d heap bytes, Absorb and Freeze %d", got.HeapBytes(), want.HeapBytes())
	}
}

// aggregateChecked returns Aggregate(cfg, children) after checking it against
// absorbed.
func aggregateChecked(t *testing.T, cfg Config, children []*Matrix) *Matrix {
	t.Helper()
	want, err := absorbed(cfg, children)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Aggregate(cfg, children)
	if err != nil {
		t.Fatal(err)
	}
	sameAggregate(t, want, got)
	return got
}

// TestAggregateMatchesAbsorb builds leaves with overflow blocks from a narrow
// identity space — repeats merge, equal fingerprint pairs meet under other
// bases, buckets fill and refuse — and aggregates them to parents and
// grandparents, each checked against Absorb and Freeze: with one promoted bit
// and with none (a parent as large as one child, so it spills), over frozen
// and over dense children, over leaves that all leave one hub vertex, and
// over dupSpillSeed, whose spill list repeats an identity. Calls of different
// sizes alternate, so a scratch that keeps state between calls shows.
func TestAggregateMatchesAbsorb(t *testing.T) {
	for _, maps := range []int{1, 4} {
		for _, b := range []int{1, 3} {
			t.Run(fmt.Sprintf("maps=%d/b=%d", maps, b), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(16*maps + b)))
				leafCfg := Config{D: 4, B: b, Maps: maps, FBits: 6, Timed: true}
				obCfg := leafCfg
				obCfg.B = 1
				agg := func(d uint32, fbits uint) Config { return Config{D: d, B: b, Maps: maps, FBits: fbits} }
				obs, spills := 0, 0
				// leaf returns a leaf filled until it refused three times and
				// the overflow blocks that took the refused edges.
				leaf := func(hub bool) []*Matrix {
					l := mustNew(t, leafCfg, 0)
					kids := []*Matrix{l}
					for refused := 0; refused < 3; {
						k := refKey{fpS: uint32(rng.Intn(6)), baseS: uint32(rng.Intn(4)),
							fpD: uint32(rng.Intn(6)), baseD: uint32(rng.Intn(4)), off: uint32(rng.Intn(10))}
						if hub {
							k.fpS, k.baseS, k.fpD = 3, 1, uint32(rng.Intn(64))
						}
						w := int64(1 + rng.Intn(5))
						if l.Add(k.fpS, k.baseS, k.fpD, k.baseD, k.off, w) {
							continue
						}
						refused++
						if ob := kids[len(kids)-1]; len(kids) == 1 || !ob.Add(k.fpS, k.baseS, k.fpD, k.baseD, k.off, w) {
							ob = mustNew(t, obCfg, 0)
							ob.Add(k.fpS, k.baseS, k.fpD, k.baseD, k.off, w)
							kids = append(kids, ob)
							obs++
						}
					}
					return kids
				}
				for round := 0; round < 4; round++ {
					var frozen, dense []*Matrix
					for p := 0; p < 4; p++ {
						var kids []*Matrix
						for c := 0; c < 4; c++ {
							kids = append(kids, leaf(round == 3)...)
						}
						parent := aggregateChecked(t, agg(8, 5), kids)
						again := aggregateChecked(t, agg(8, 5), kids)
						if !bytes.Equal(encodeBytes(parent), encodeBytes(again)) {
							t.Fatal("a second Aggregate of the same children differs")
						}
						spills += aggregateChecked(t, agg(4, 6), kids).SpillCount()
						d, err := New(agg(8, 5), 0)
						if err != nil {
							t.Fatal(err)
						}
						for _, c := range kids {
							if err := d.Absorb(c); err != nil {
								t.Fatal(err)
							}
						}
						frozen, dense = append(frozen, parent), append(dense, d)
					}
					grand := aggregateChecked(t, agg(16, 4), frozen)
					if !bytes.Equal(encodeBytes(grand), encodeBytes(aggregateChecked(t, agg(16, 4), dense))) {
						t.Fatal("aggregates of frozen and of dense children differ")
					}
					spills += aggregateChecked(t, agg(8, 5), frozen).SpillCount()
					spills += grand.SpillCount()
				}
				if obs == 0 || spills == 0 {
					t.Fatalf("fixture too tame: %d overflow blocks, %d spill entries", obs, spills)
				}
			})
		}
	}
	t.Run("dupSpillSeed", func(t *testing.T) {
		dup, err := decode(dupSpillSeed(t))
		if err != nil {
			t.Fatal(err)
		}
		kids := []*Matrix{dup, frozenCopy(t, dup)}
		aggregateChecked(t, Config{D: 8, B: 1, Maps: 2, FBits: 7}, kids)
		if m := aggregateChecked(t, dup.cfg, kids); m.SpillCount() == 0 {
			t.Fatal("no promoted bit, and nothing spilled")
		}
	})
}

// decodeSmall decodes the next matrix from r unless its header is
// unreadable or its slab would exceed 2^16 slots, as in FuzzMatrixDecode.
func decodeSmall(r *wire.Reader) (*Matrix, bool) {
	hdr := *r // a copy: reading the header consumes nothing from r
	hdr.U64()
	if d, b := uint64(hdr.U32()), uint64(hdr.Int()); hdr.Err() != nil || d*d*b > 1<<16 {
		return nil, false
	}
	m, err := Decode(r, nil)
	return m, err == nil
}

// FuzzAggregate: one to four matrices that Decode accepts, read back to back,
// aggregate at the geometry the first implies — one promoted bit or none — to
// exactly what NewIn, Absorb of each and Freeze build, or both refuse them.
func FuzzAggregate(f *testing.F) {
	seeds := append(fuzzSeeds(f), dupSpillSeed(f))
	for _, s := range seeds {
		f.Add(bytes.Repeat(s, 4), uint8(3))
		f.Add(s, uint8(4))
	}
	f.Add(bytes.Join([][]byte{seeds[0], seeds[1], seeds[0]}, nil), uint8(6)) // a leaf, an aggregate one level up, a leaf
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		r := wire.NewReader(data)
		var children []*Matrix
		for len(children) < 1+int(shape&3) {
			c, ok := decodeSmall(&r)
			if !ok {
				break
			}
			children = append(children, c)
		}
		if len(children) == 0 {
			return
		}
		c0 := children[0].cfg
		rbits := uint(shape >> 2 & 1)
		if c0.FBits <= rbits {
			rbits = 0
		}
		cfg := Config{D: c0.D << rbits, B: c0.B, Maps: c0.Maps, FBits: c0.FBits - rbits}
		if uint64(cfg.D)*uint64(cfg.D)*uint64(cfg.B) > 1<<16 {
			return
		}
		want, werr := absorbed(cfg, children)
		got, gerr := Aggregate(cfg, children)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("Absorb: %v; Aggregate: %v", werr, gerr)
		}
		if werr == nil {
			sameAggregate(t, want, got)
		}
	})
}

// TestAggregateAllocs: once the scratch is warm, Aggregate allocates exactly
// the arrays the frozen matrix keeps — the Matrix and frozen structs, the
// D²+1 bucket offsets, keys, ws and idxs, and with a spill list that list
// and its two views' array — however many entries it holds. In bytes that is
// 17 per entry, 4·(D²+1) of offsets, the two structs, 24 per spill entry and
// 48 for its two view entries, each allocation rounded up to its size class
// and nothing more: no column index, which the first ColSum builds. The
// cheapest of 101 single runs, so it is exact under -race, whose sync.Pool
// drops Puts.
func TestAggregateAllocs(t *testing.T) {
	leaves := func(edges int) []*Matrix {
		rng := rand.New(rand.NewSource(int64(edges)))
		var kids []*Matrix
		for c := 0; c < 4; c++ {
			l := mustNew(t, benchLeaf, 0)
			for i := 0; i < edges; i++ {
				l.Add(uint32(rng.Intn(1<<benchLeaf.FBits)), uint32(rng.Intn(16)), uint32(rng.Intn(1<<benchLeaf.FBits)), uint32(rng.Intn(16)), 0, 1)
			}
			kids = append(kids, l)
		}
		return kids
	}
	parent := Config{D: 32, B: 3, Maps: 4, FBits: 18}
	same := Config{D: 16, B: 3, Maps: 4, FBits: 19} // no promoted bit: four full leaves spill
	for _, c := range []struct {
		name   string
		cfg    Config
		kids   []*Matrix
		spills bool
	}{
		{"sparse", parent, leaves(3), false},
		{"full", parent, leaves(400), false},
		{"spilling", same, leaves(2000), true},
	} {
		m, err := Aggregate(c.cfg, c.kids)
		if err != nil {
			t.Fatal(err)
		}
		if spills := m.SpillCount() > 0; spills != c.spills {
			t.Fatalf("%s: %d entries, %d spilled: the fixture is not what it says", c.name, m.Count(), m.SpillCount())
		}
		want := 6.0
		if c.spills {
			want = 8
		}
		least, leastBytes := -1.0, uint64(0)
		for i := 0; i < 101; i++ {
			if n := testing.AllocsPerRun(1, func() { _, _ = Aggregate(c.cfg, c.kids) }); least < 0 || n < least {
				least = n
			}
			if n := allocBytes(func() { _, _ = Aggregate(c.cfg, c.kids) }); i == 0 || n < leastBytes {
				leastBytes = n
			}
		}
		if least != want {
			t.Fatalf("%s (%d entries): Aggregate allocates %v times, want %v", c.name, m.Count(), least, want)
		}
		n, ns, nb := m.Count(), m.SpillCount(), int(c.cfg.D)*int(c.cfg.D)
		sizes := []int{8 * n, 8 * n, n, 4 * (nb + 1), frozenSize, matrixSize}
		if ns > 0 {
			sizes = append(sizes, spillSize*ns, 2*spillRefSize*ns)
		}
		lo, hi := 0, 0
		for _, sz := range sizes {
			lo, hi = lo+sz, hi+sizeClass(sz)
		}
		// Entries under 16 bytes may share a block of the tiny allocator.
		if leastBytes+16 < uint64(lo) || leastBytes > uint64(hi) {
			t.Fatalf("%s (%d entries, %d spilled): Aggregate allocates %d bytes, want %d..%d", c.name, n, ns, leastBytes, lo, hi)
		}
		t.Logf("%s: %d entries, %d spilled: %d bytes in %d..%d", c.name, n, ns, leastBytes, lo, hi)
		if m.IndexBytes() != 0 {
			t.Fatalf("%s: Aggregate built a column index of %d bytes", c.name, m.IndexBytes())
		}
	}
}

// allocBytes returns the bytes the heap allocated while f ran. ReadMemStats
// flushes every P's cache first, so the count is exact, but it includes what
// other goroutines allocated meanwhile.
func allocBytes(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	f()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// sizeClass bounds the bytes an allocation of size takes: small sizes round
// up to a size class, at most a fifth or 16 bytes more (4097 bytes take
// 4864), large ones to whole 8 KB pages.
func sizeClass(size int) int {
	if size > 32<<10 {
		return (size + 8<<10 - 1) &^ (8<<10 - 1)
	}
	return size + max(size/5, 16)
}

// TestAggregateValidation: Aggregate refuses what Absorb refused — a timed
// parent, a child with fewer fingerprint bits, a child whose dimension and
// promoted bits miss the parent's — and an invalid geometry.
func TestAggregateValidation(t *testing.T) {
	child := mustNew(t, Config{D: 8, B: 1, Maps: 1, FBits: 8, Timed: true}, 0)
	for _, c := range []struct {
		what string
		cfg  Config
	}{
		{"into a timed matrix", Config{D: 8, B: 1, Maps: 1, FBits: 8, Timed: true}},
		{"with growing FBits", Config{D: 8, B: 1, Maps: 1, FBits: 9}},
		{"with mismatched geometry", Config{D: 32, B: 1, Maps: 1, FBits: 7}},
		{"at an invalid geometry", Config{D: 12, B: 1, Maps: 1, FBits: 7}},
	} {
		if _, err := Aggregate(c.cfg, []*Matrix{child}); err == nil {
			t.Errorf("aggregate %s succeeded", c.what)
		}
	}
}
