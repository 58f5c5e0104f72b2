package matrix

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"higgs/internal/hashing"
)

func mustNew(t testing.TB, cfg Config, startT int64) *Matrix {
	t.Helper()
	m, err := New(cfg, startT)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	good := Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{D: 0, B: 3, Maps: 4, FBits: 19},
		{D: 15, B: 3, Maps: 4, FBits: 19},
		{D: 16, B: 0, Maps: 4, FBits: 19},
		{D: 16, B: 3, Maps: 0, FBits: 19},
		{D: 16, B: 3, Maps: 17, FBits: 19},
		{D: 2, B: 3, Maps: 4, FBits: 19}, // Maps > D
		{D: 16, B: 3, Maps: 4, FBits: 0},
		{D: 16, B: 3, Maps: 4, FBits: 33},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	if _, err := New(bad[0], 0); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestAddAndEdgeSum(t *testing.T) {
	m := mustNew(t, Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}, 100)
	if !m.Add(5, 3, 9, 7, 10, 2) {
		t.Fatal("insert into empty matrix failed")
	}
	if got := m.EdgeSum(5, 3, 9, 7, math.MinInt64, math.MaxInt64); got != 2 {
		t.Fatalf("EdgeSum = %d, want 2", got)
	}
	// Same edge, same offset: aggregates in place.
	if !m.Add(5, 3, 9, 7, 10, 3) {
		t.Fatal("aggregate insert failed")
	}
	if got := m.EdgeSum(5, 3, 9, 7, math.MinInt64, math.MaxInt64); got != 5 {
		t.Fatalf("EdgeSum after merge = %d, want 5", got)
	}
	if m.Count() != 1 {
		t.Fatalf("Count = %d, want 1 (merged)", m.Count())
	}
	// Same edge, different offset: separate entry, both visible.
	if !m.Add(5, 3, 9, 7, 20, 7) {
		t.Fatal("second-offset insert failed")
	}
	if m.Count() != 2 {
		t.Fatalf("Count = %d, want 2", m.Count())
	}
	if got := m.EdgeSum(5, 3, 9, 7, math.MinInt64, math.MaxInt64); got != 12 {
		t.Fatalf("EdgeSum total = %d, want 12", got)
	}
	// Offset range filters.
	if got := m.EdgeSum(5, 3, 9, 7, 0, 15); got != 5 {
		t.Fatalf("EdgeSum [0,15] = %d, want 5", got)
	}
	if got := m.EdgeSum(5, 3, 9, 7, 15, 25); got != 7 {
		t.Fatalf("EdgeSum [15,25] = %d, want 7", got)
	}
	if got := m.EdgeSum(5, 3, 9, 7, 30, 90); got != 0 {
		t.Fatalf("EdgeSum [30,90] = %d, want 0", got)
	}
	// Unknown edge reads zero.
	if got := m.EdgeSum(6, 3, 9, 7, math.MinInt64, math.MaxInt64); got != 0 {
		t.Fatalf("unknown edge EdgeSum = %d, want 0", got)
	}
}

func TestUntimedIgnoresOffset(t *testing.T) {
	m := mustNew(t, Config{D: 8, B: 2, Maps: 2, FBits: 12}, 0)
	m.Add(1, 2, 3, 4, 10, 5)
	m.Add(1, 2, 3, 4, 99, 6) // different "offset" must still merge
	if m.Count() != 1 {
		t.Fatalf("Count = %d, want 1", m.Count())
	}
	if got := m.EdgeSum(1, 2, 3, 4, math.MinInt64, math.MaxInt64); got != 11 {
		t.Fatalf("EdgeSum = %d, want 11", got)
	}
}

func TestAddFailsWhenCandidatesFull(t *testing.T) {
	// Maps=1, B=1: a single candidate bucket with one slot per edge.
	m := mustNew(t, Config{D: 2, B: 1, Maps: 1, FBits: 8, Timed: true}, 0)
	if !m.Add(1, 0, 1, 0, 0, 1) {
		t.Fatal("first insert failed")
	}
	// Different fingerprint, same bucket: must fail.
	if m.Add(2, 0, 2, 0, 0, 1) {
		t.Fatal("insert into full bucket should fail")
	}
	// The original edge can still aggregate.
	if !m.Add(1, 0, 1, 0, 0, 1) {
		t.Fatal("aggregation into full bucket should succeed")
	}
}

func TestMMBRescuesConflicts(t *testing.T) {
	// With Maps=4 an edge has 16 candidate buckets; filling the base bucket
	// must not make inserts fail.
	m := mustNew(t, Config{D: 16, B: 1, Maps: 4, FBits: 16, Timed: true}, 0)
	placed := 0
	for fp := uint32(1); fp <= 10; fp++ {
		if m.Add(fp, 5, fp, 9, 0, 1) {
			placed++
		}
	}
	if placed < 10 {
		t.Fatalf("only %d/10 conflicting edges placed with MMB", placed)
	}
	for fp := uint32(1); fp <= 10; fp++ {
		if got := m.EdgeSum(fp, 5, fp, 9, math.MinInt64, math.MaxInt64); got != 1 {
			t.Fatalf("edge fp=%d EdgeSum = %d, want 1", fp, got)
		}
	}
}

func TestRowColSum(t *testing.T) {
	m := mustNew(t, Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}, 0)
	// Three edges out of (fp=7, base=2) and one unrelated edge.
	m.Add(7, 2, 1, 1, 5, 10)
	m.Add(7, 2, 2, 6, 6, 20)
	m.Add(7, 2, 3, 9, 7, 30)
	m.Add(8, 3, 1, 1, 5, 100)
	if got := m.RowSum(7, 2, math.MinInt64, math.MaxInt64); got != 60 {
		t.Fatalf("RowSum = %d, want 60", got)
	}
	if got := m.RowSum(7, 2, 6, 7); got != 50 {
		t.Fatalf("RowSum [6,7] = %d, want 50", got)
	}
	if got := m.RowSum(9, 2, math.MinInt64, math.MaxInt64); got != 0 {
		t.Fatalf("RowSum unknown fp = %d, want 0", got)
	}
	// Incoming side: destination (fp=1, base=1) receives 10 + 100.
	if got := m.ColSum(1, 1, math.MinInt64, math.MaxInt64); got != 110 {
		t.Fatalf("ColSum = %d, want 110", got)
	}
	if got := m.ColSum(1, 1, 5, 5); got != 110 {
		t.Fatalf("ColSum [5,5] = %d, want 110", got)
	}
}

func TestSub(t *testing.T) {
	m := mustNew(t, Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}, 0)
	m.Add(5, 3, 9, 7, 10, 8)
	if !m.Sub(5, 3, 9, 7, 10, 3) {
		t.Fatal("Sub did not find entry")
	}
	if got := m.EdgeSum(5, 3, 9, 7, math.MinInt64, math.MaxInt64); got != 5 {
		t.Fatalf("after Sub = %d, want 5", got)
	}
	if m.Sub(6, 3, 9, 7, 10, 1) {
		t.Fatal("Sub found nonexistent entry")
	}
	if m.Sub(5, 3, 9, 7, 11, 1) {
		t.Fatal("Sub matched wrong offset on timed matrix")
	}
}

// TestPromoteMatchesDirectHash is the paper's no-additional-error invariant
// (§IV-B): promoting (fp, addr) from level l to l+1 must equal splitting the
// original hash directly at level l+1.
func TestPromoteMatchesDirectHash(t *testing.T) {
	const (
		f1 = 19
		d1 = 16
	)
	f := func(h uint64, levels uint8) bool {
		l := uint(levels%8) + 1 // parent level 2..9
		fp, addr := hashing.Split(h, f1, d1)
		// Promote one bit at a time up to level l.
		for i := uint(1); i < l; i++ {
			fp, addr = Promote(fp, addr, f1-(i-1), 1)
		}
		wantFp, wantAddr := hashing.Split(h, f1-(l-1), d1<<(l-1))
		return fp == wantFp && addr == wantAddr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPromoteRZero(t *testing.T) {
	fp, base := Promote(0x55, 3, 8, 0)
	if fp != 0x55 || base != 3 {
		t.Fatalf("Promote with rbits=0 changed values: %x %d", fp, base)
	}
}

func TestAbsorb(t *testing.T) {
	const (
		childF = 10
		d      = 8
	)
	h := hashing.NewHasher(7)
	children := make([]*Matrix, 4)
	type edge struct{ s, d uint64 }
	inserted := map[edge]int64{}
	rng := rand.New(rand.NewSource(3))
	for i := range children {
		children[i] = mustNew(t, Config{D: d, B: 3, Maps: 4, FBits: childF, Timed: true}, int64(i*100))
		for n := 0; n < 40; n++ {
			s, dv := uint64(rng.Intn(30)), uint64(rng.Intn(30))
			fpS, baseS := hashing.Split(h.Hash(s), childF, d)
			fpD, baseD := hashing.Split(h.Hash(dv), childF, d)
			if children[i].Add(fpS, baseS, fpD, baseD, uint32(n), 1) {
				inserted[edge{s, dv}]++
			}
		}
	}
	parent := mustNew(t, Config{D: d << 1, B: 3, Maps: 4, FBits: childF - 1}, 0)
	for _, c := range children {
		if err := parent.Absorb(c); err != nil {
			t.Fatal(err)
		}
	}
	// Every inserted edge must be readable at the parent level with at
	// least its true weight (one-sided error).
	for e, w := range inserted {
		fpS, baseS := hashing.Split(h.Hash(e.s), childF-1, d<<1)
		fpD, baseD := hashing.Split(h.Hash(e.d), childF-1, d<<1)
		got := parent.EdgeSum(fpS, baseS, fpD, baseD, math.MinInt64, math.MaxInt64)
		if got < w {
			t.Fatalf("edge %v: parent EdgeSum = %d < true %d (aggregation lost weight)", e, got, w)
		}
	}
	// Total weight is conserved exactly.
	var total, childTotal int64
	parent.ForEach(func(_, _, _, _ uint32, _ uint32, w int64) { total += w })
	for _, c := range children {
		c.ForEach(func(_, _, _, _ uint32, _ uint32, w int64) { childTotal += w })
	}
	if total != childTotal {
		t.Fatalf("aggregation changed total weight: parent %d vs children %d", total, childTotal)
	}
}

func TestAbsorbValidation(t *testing.T) {
	timed := mustNew(t, Config{D: 8, B: 1, Maps: 1, FBits: 8, Timed: true}, 0)
	child := mustNew(t, Config{D: 8, B: 1, Maps: 1, FBits: 8, Timed: true}, 0)
	if err := timed.Absorb(child); err == nil {
		t.Error("absorb into timed matrix should fail")
	}
	parent := mustNew(t, Config{D: 8, B: 1, Maps: 1, FBits: 9}, 0)
	if err := parent.Absorb(child); err == nil {
		t.Error("absorb with growing FBits should fail")
	}
	parent2 := mustNew(t, Config{D: 32, B: 1, Maps: 1, FBits: 7}, 0)
	if err := parent2.Absorb(child); err == nil {
		t.Error("absorb with mismatched geometry should fail")
	}
}

func TestAbsorbSpill(t *testing.T) {
	// rbits = 0 and a parent of the same size as four fully loaded
	// children forces spills; no weight may be lost and spilled edges must
	// remain queryable.
	children := make([]*Matrix, 4)
	var want int64
	for i := range children {
		children[i] = mustNew(t, Config{D: 2, B: 1, Maps: 1, FBits: 8, Timed: true}, 0)
		// Fill every bucket with a distinct fingerprint per child.
		for r := uint32(0); r < 2; r++ {
			for c := uint32(0); c < 2; c++ {
				fp := uint32(i)*16 + r*4 + c + 1
				if !children[i].Add(fp, r, fp, c, 0, 1) {
					t.Fatal("fill insert failed")
				}
				want++
			}
		}
	}
	parent := mustNew(t, Config{D: 2, B: 1, Maps: 1, FBits: 8}, 0)
	for _, c := range children {
		if err := parent.Absorb(c); err != nil {
			t.Fatal(err)
		}
	}
	if parent.SpillCount() == 0 {
		t.Fatal("expected spills, got none")
	}
	var total int64
	parent.ForEach(func(_, _, _, _ uint32, _ uint32, w int64) { total += w })
	if total != want {
		t.Fatalf("total after spill-absorb = %d, want %d", total, want)
	}
	// A spilled edge answers its edge query.
	for i := 0; i < 4; i++ {
		for r := uint32(0); r < 2; r++ {
			for c := uint32(0); c < 2; c++ {
				fp := uint32(i)*16 + r*4 + c + 1
				if got := parent.EdgeSum(fp, r, fp, c, math.MinInt64, math.MaxInt64); got != 1 {
					t.Fatalf("edge fp=%d = %d, want 1", fp, got)
				}
			}
		}
	}
	// Row sums include spills.
	var rowTotal int64
	for fp := uint32(1); fp < 64; fp++ {
		for r := uint32(0); r < 2; r++ {
			rowTotal += parent.RowSum(fp, r, math.MinInt64, math.MaxInt64)
		}
	}
	if rowTotal != want {
		t.Fatalf("row totals = %d, want %d", rowTotal, want)
	}
}

func TestSubInSpill(t *testing.T) {
	parent := mustNew(t, Config{D: 2, B: 1, Maps: 1, FBits: 8}, 0)
	child := mustNew(t, Config{D: 2, B: 1, Maps: 1, FBits: 8, Timed: true}, 0)
	child.Add(1, 0, 1, 0, 0, 5)
	child2 := mustNew(t, Config{D: 2, B: 1, Maps: 1, FBits: 8, Timed: true}, 0)
	child2.Add(2, 0, 2, 0, 0, 7)
	if err := parent.Absorb(child); err != nil {
		t.Fatal(err)
	}
	if err := parent.Absorb(child2); err != nil {
		t.Fatal(err)
	}
	if parent.SpillCount() != 1 {
		t.Fatalf("SpillCount = %d, want 1", parent.SpillCount())
	}
	if !parent.Sub(2, 0, 2, 0, 0, 3) {
		t.Fatal("Sub did not reach spill entry")
	}
	if got := parent.EdgeSum(2, 0, 2, 0, math.MinInt64, math.MaxInt64); got != 4 {
		t.Fatalf("spilled edge after Sub = %d, want 4", got)
	}
}

// TestFrozenRefusesWrites: Add and Absorb into a frozen matrix fail loudly,
// and only an untimed, unfrozen matrix can be frozen; Sub still works.
func TestFrozenRefusesWrites(t *testing.T) {
	m := mustNew(t, Config{D: 8, B: 2, Maps: 2, FBits: 12}, 0)
	m.Add(1, 2, 3, 4, 0, 5)
	m.Freeze()
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("Add to a frozen matrix", func() { m.Add(1, 2, 3, 4, 0, 1) })
	mustPanic("Add of a new entry to a frozen matrix", func() { m.Add(7, 2, 3, 4, 0, 1) })
	mustPanic("a second Freeze", func() { m.Freeze() })
	mustPanic("Freeze of a timed matrix", func() { mustNew(t, Config{D: 8, B: 2, Maps: 2, FBits: 12, Timed: true}, 0).Freeze() })
	if err := m.Absorb(mustNew(t, Config{D: 8, B: 2, Maps: 2, FBits: 12, Timed: true}, 0)); err == nil {
		t.Error("Absorb into a frozen matrix succeeded")
	}
	if !m.Sub(1, 2, 3, 4, 0, 2) || m.EdgeSum(1, 2, 3, 4, math.MinInt64, math.MaxInt64) != 3 {
		t.Error("Sub did not reach the frozen entry")
	}
}

// TestColSumBuildsIndexOnce: eight goroutines race to a frozen matrix's
// first ColSum, as readers holding a shard's shared lock do. Every answer is
// the dense matrix's, every goroutine meets the one column index published,
// and later calls allocate nothing.
func TestColSumBuildsIndexOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dense := mustNew(t, Config{D: 32, B: 3, Maps: 4, FBits: 6}, 0)
	for i := 0; i < 4000; i++ {
		dense.addOrSpill(uint32(rng.Intn(64)), uint32(rng.Intn(32)), uint32(rng.Intn(64)), uint32(rng.Intn(32)), 1)
	}
	if dense.SpillCount() == 0 {
		t.Fatal("fixture does not spill")
	}
	want := make([]int64, 64*32)
	for p := range want {
		want[p] = dense.ColSum(uint32(p/32), uint32(p%32), math.MinInt64, math.MaxInt64)
	}
	fz := frozenCopy(t, dense)
	var wg sync.WaitGroup
	start := make(chan struct{})
	met := make([]*colIndex, 8)
	for g := range met {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			fz.ColSum(0, 0, math.MinInt64, math.MaxInt64)
			met[g] = fz.frz.cols // the index this goroutine's first ColSum read
			for i := range want {
				p := (i + g*len(want)/8) % len(want) // each starts elsewhere
				if got := fz.ColSum(uint32(p/32), uint32(p%32), math.MinInt64, math.MaxInt64); got != want[p] {
					t.Errorf("goroutine %d: ColSum(%d@%d) = %d, want %d", g, p/32, p%32, got, want[p])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for g, c := range met {
		if c == nil || c != fz.frz.cols {
			t.Fatalf("goroutine %d met column index %p, the matrix holds %p", g, c, fz.frz.cols)
		}
	}
	if n := testing.AllocsPerRun(100, func() { fz.ColSum(1, 2, math.MinInt64, math.MaxInt64) }); n != 0 {
		t.Fatalf("ColSum with a column index allocates %v times", n)
	}
}

func TestUtilizationAndSpace(t *testing.T) {
	m := mustNew(t, Config{D: 4, B: 2, Maps: 2, FBits: 10, Timed: true}, 0)
	if m.Utilization() != 0 {
		t.Fatal("empty matrix should have zero utilization")
	}
	m.Add(1, 0, 1, 0, 0, 1)
	if m.Count() != 1 || m.Capacity() != 32 {
		t.Fatalf("Count/Capacity = %d/%d, want 1/32", m.Count(), m.Capacity())
	}
	if m.Utilization() != 1.0/32 {
		t.Fatalf("Utilization = %g", m.Utilization())
	}
	// Entry bits: 2*10 fp + 2*1 idx + 64 w + 32 off = 118.
	if got := m.EntryBits(); got != 118 {
		t.Fatalf("EntryBits = %d, want 118", got)
	}
	if m.SpaceBytes() != (32*118+7)/8 {
		t.Fatalf("SpaceBytes = %d", m.SpaceBytes())
	}
	if m.HeapBytes() <= 0 {
		t.Fatal("HeapBytes must be positive")
	}
}

func TestForEachRecoversBases(t *testing.T) {
	m := mustNew(t, Config{D: 16, B: 2, Maps: 4, FBits: 12, Timed: true}, 0)
	type rec struct{ fpS, baseS, fpD, baseD, off uint32 }
	want := map[rec]int64{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		r := rec{
			fpS:   uint32(rng.Intn(1 << 12)),
			baseS: uint32(rng.Intn(16)),
			fpD:   uint32(rng.Intn(1 << 12)),
			baseD: uint32(rng.Intn(16)),
			off:   uint32(rng.Intn(50)),
		}
		if m.Add(r.fpS, r.baseS, r.fpD, r.baseD, r.off, 1) {
			want[r]++
		}
	}
	got := map[rec]int64{}
	m.ForEach(func(fpS, baseS, fpD, baseD, off uint32, w int64) {
		got[rec{fpS, baseS, fpD, baseD, off}] += w
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach saw %d records, want %d", len(got), len(want))
	}
	for r, w := range want {
		if got[r] != w {
			t.Fatalf("record %+v: got %d, want %d", r, got[r], w)
		}
	}
}

// BenchmarkAdd times the three Adds a leaf sees, on the leaf geometry: fresh
// (new identities from empty until the first refusal, a leaf's life), merge
// (re-adding stored identities at ~54 % fill: the walk ends at the match) and
// refused (every candidate bucket full — all r×r are walked, the case first
// fit cannot shorten and must not slow).
func BenchmarkAdd(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		m, err := New(benchLeaf, 0)
		if err != nil {
			b.Fatal(err)
		}
		h := hashing.NewHasher(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hs, hd := h.Hash(uint64(i)), h.Hash(uint64(i+1))
			fpS, baseS := hashing.Split(hs, benchLeaf.FBits, benchLeaf.D)
			fpD, baseD := hashing.Split(hd, benchLeaf.FBits, benchLeaf.D)
			if !m.Add(fpS, baseS, fpD, baseD, uint32(i%100), 1) {
				b.StopTimer()
				m, _ = New(benchLeaf, 0)
				b.StartTimer()
			}
		}
	})
	b.Run("merge", func(b *testing.B) {
		m, _ := benchMatrix(b, benchLeaf, 16)
		var stored []refKey
		m.ForEach(func(fpS, baseS, fpD, baseD, off uint32, _ int64) {
			stored = append(stored, refKey{fpS, baseS, fpD, baseD, off})
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := stored[i%len(stored)]
			if !m.Add(k.fpS, k.baseS, k.fpD, k.baseD, k.off, 1) {
				b.Fatal("merging Add refused")
			}
		}
	})
	b.Run("refused", func(b *testing.B) {
		m, err := New(benchLeaf, 0)
		if err != nil {
			b.Fatal(err)
		}
		// Fill every bucket: each identity below is its own bucket's base
		// pair, so it lands at position (0, 0) of its walk.
		for row := uint32(0); row < benchLeaf.D; row++ {
			for col := uint32(0); col < benchLeaf.D; col++ {
				for k := uint32(1); k <= uint32(benchLeaf.B); k++ {
					if !m.Add(k, row, k, col, 0, 1) {
						b.Fatal("fill Add refused")
					}
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m.Add(99, uint32(i), 99, uint32(i>>4), 0, 1) {
				b.Fatal("Add into a full matrix accepted")
			}
		}
	})
}

// The two geometries the daemon spends its time in: the timed leaf matrix
// and a level-6 aggregate (θ = 4: D doubles and F loses a bit per level).
var (
	benchLeaf = Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}
	benchAgg  = Config{D: 512, B: 3, Maps: 4, FBits: 14}
)

type benchEdge struct{ fpS, baseS, fpD, baseD uint32 }

// benchMatrix fills a matrix of the given geometry to ~54 % — the leaf fill
// the paper stream reaches — and returns it with probes of which half hit.
func benchMatrix(b testing.TB, cfg Config, seed int64) (*Matrix, []benchEdge) {
	b.Helper()
	m, err := New(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	edge := func() benchEdge {
		return benchEdge{uint32(rng.Intn(1 << cfg.FBits)), uint32(rng.Intn(int(cfg.D))),
			uint32(rng.Intn(1 << cfg.FBits)), uint32(rng.Intn(int(cfg.D)))}
	}
	var probes []benchEdge
	for m.Count() < m.Capacity()*54/100 {
		e := edge()
		m.Add(e.fpS, e.baseS, e.fpD, e.baseD, uint32(rng.Intn(100)), 1)
		if len(probes) < 1024 {
			probes = append(probes, e, edge())
		}
	}
	return m, probes
}

var benchSink int64

func benchProbe(b *testing.B, probe func(m *Matrix, e benchEdge, lo, hi int64) int64) {
	for _, g := range []struct {
		name   string
		cfg    Config
		lo, hi int64
	}{
		{"leaf", benchLeaf, math.MinInt64, math.MaxInt64},
		{"leaf-fringe", benchLeaf, 10, 60},
		{"agg6", benchAgg, math.MinInt64, math.MaxInt64},
	} {
		b.Run(g.name, func(b *testing.B) {
			m, probes := benchMatrix(b, g.cfg, 16)
			if !g.cfg.Timed {
				m.Freeze() // the only form an aggregate is queried in
			}
			probe(m, probes[0], g.lo, g.hi) // ColSum's first call builds its index: agg6-first times that
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += probe(m, probes[i%len(probes)], g.lo, g.hi)
			}
		})
	}
}

func BenchmarkEdgeSum(b *testing.B) {
	benchProbe(b, func(m *Matrix, e benchEdge, lo, hi int64) int64 {
		return m.EdgeSum(e.fpS, e.baseS, e.fpD, e.baseD, lo, hi)
	})
}

func BenchmarkRowSum(b *testing.B) {
	benchProbe(b, func(m *Matrix, e benchEdge, lo, hi int64) int64 { return m.RowSum(e.fpS, e.baseS, lo, hi) })
}

// BenchmarkColSum also times, as agg6-first, the first ColSum on a frozen
// level-6 aggregate: the column index build the seal no longer pays, plus
// one probe. Each iteration gets a fresh frozen matrix without an index,
// made outside the timer.
func BenchmarkColSum(b *testing.B) {
	benchProbe(b, func(m *Matrix, e benchEdge, lo, hi int64) int64 { return m.ColSum(e.fpD, e.baseD, lo, hi) })
	b.Run("agg6-first", func(b *testing.B) {
		m, probes := benchMatrix(b, benchAgg, 16)
		m.Freeze()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := *m
			fresh.frz = &frozen{start: m.frz.start, bySrc: m.frz.bySrc, byDst: m.frz.byDst}
			e := probes[i%len(probes)]
			b.StartTimer()
			benchSink += fresh.ColSum(e.fpD, e.baseD, math.MinInt64, math.MaxInt64)
		}
	})
}

// benchHub fills an untimed matrix to ~54 % with edges of which three in four
// leave one of 8 hub vertices, the same hubs for every seed: a hub's
// candidate rows fill and refuse, and θ such children overflow their
// parent's rows.
func benchHub(b *testing.B, cfg Config, seed int64) *Matrix {
	b.Helper()
	m, err := New(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for refused := 0; m.Count() < m.Capacity()*54/100 && refused < 1<<20; {
		fpS, baseS := uint32(rng.Intn(1<<cfg.FBits)), uint32(rng.Intn(int(cfg.D)))
		if rng.Intn(4) != 0 {
			hub := uint32(rng.Intn(8))
			fpS, baseS = hub*7919, hub*31
		}
		if !m.Add(fpS, baseS, uint32(rng.Intn(1<<cfg.FBits)), uint32(rng.Intn(int(cfg.D))), 0, 1) {
			refused++
		}
	}
	return m
}

// BenchmarkAggregate builds one aggregate per iteration the way the seal path
// does — θ = 4 children, frozen when they are aggregates themselves — at
// level 2 (over leaves), at level 6, and at level 4 over hub-heavy children
// (spill4), where about a third of the parent's entries spill.
func BenchmarkAggregate(b *testing.B) {
	agg3 := Config{D: 64, B: 3, Maps: 4, FBits: 17}
	for _, g := range []struct {
		name          string
		child, parent Config
		hub           bool
	}{
		{"leaf", benchLeaf, Config{D: 32, B: 3, Maps: 4, FBits: 18}, false},
		{"agg6", Config{D: 256, B: 3, Maps: 4, FBits: 15}, benchAgg, false},
		{"spill4", agg3, Config{D: 128, B: 3, Maps: 4, FBits: 16}, true},
	} {
		b.Run(g.name, func(b *testing.B) {
			var children [4]*Matrix
			for c := range children {
				if g.hub {
					children[c] = benchHub(b, g.child, int64(c))
				} else {
					children[c], _ = benchMatrix(b, g.child, int64(c))
				}
				if !g.child.Timed {
					children[c].Freeze() // a sealed child is aggregated frozen
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Aggregate(g.parent, children[:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
