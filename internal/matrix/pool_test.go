package matrix

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func testCfg() Config {
	return Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}
}

// TestAddAllocs: the insert hot loop must not allocate, merging or placing.
func TestAddAllocs(t *testing.T) {
	m, err := New(testCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Add(7, 3, 9, 5, 10, 1) {
		t.Fatal("first Add rejected")
	}
	if n := testing.AllocsPerRun(1000, func() { m.Add(7, 3, 9, 5, 10, 1) }); n != 0 {
		t.Fatalf("merging Add allocates %.2f allocs/op, want 0", n)
	}
	var k uint32
	if n := testing.AllocsPerRun(100, func() {
		m.Add(100+k, k, 200+k, k, 0, 1)
		k++
	}); n != 0 {
		t.Fatalf("placing Add allocates %.2f allocs/op, want 0", n)
	}
}

// zeroBeyondFill fails unless every column of m is zero at and beyond each
// bucket's fill — the invariant that lets probes sweep whole buckets — and
// the fills add up to Count.
func zeroBeyondFill(t testing.TB, m *Matrix) {
	t.Helper()
	total := 0
	for bkt, f := range m.fills {
		total += int(f)
		for k := bkt*m.cfg.B + int(f); k < (bkt+1)*m.cfg.B; k++ {
			if m.keys[k] != 0 || m.ws[k] != 0 || m.idxs[k] != 0 || (m.offs != nil && m.offs[k] != 0) {
				t.Fatalf("bucket %d (fill %d): slot %d is not zero", bkt, f, k)
			}
		}
	}
	if total != m.Count() {
		t.Fatalf("fills sum %d != count %d", total, m.Count())
	}
}

// TestPoolReuse: a released slab must come back from the pool zeroed and
// with the same backing arrays, and only to a matrix of its own kind — a
// timed and an untimed slab of equal slot count never swap.
func TestPoolReuse(t *testing.T) {
	p := NewPool()
	untimed := testCfg()
	untimed.Timed = false
	for _, cfg := range []Config{testCfg(), untimed} {
		m, err := NewIn(p, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if (m.offs != nil) != cfg.Timed {
			t.Fatalf("timed=%v matrix has offs=%v", cfg.Timed, m.offs != nil)
		}
		m.Add(1, 2, 3, 4, 5, 9)
		first := &m.keys[0]
		m.Release(p)
		if m.keys != nil || m.ws != nil || m.idxs != nil || m.offs != nil || m.fills != nil {
			t.Fatal("Release must neutralize the matrix")
		}
		other := cfg
		other.Timed = !cfg.Timed
		mo, err := NewIn(p, other, 0)
		if err != nil {
			t.Fatal(err)
		}
		if &mo.keys[0] == first || (mo.offs != nil) != other.Timed {
			t.Fatalf("timed=%v slab handed to a timed=%v matrix", cfg.Timed, other.Timed)
		}
		m2, err := NewIn(p, cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		if &m2.keys[0] != first {
			t.Fatal("pooled slab not reused")
		}
		if m2.Count() != 0 {
			t.Fatalf("reused matrix reports count %d", m2.Count())
		}
		zeroBeyondFill(t, m2)
	}
}

// occupied counts the non-zero slots of a slab plus its fills.
func occupied(s slab) int {
	n := 0
	for k := range s.keys {
		if s.keys[k] != 0 || s.ws[k] != 0 || s.idxs[k] != 0 || (s.offs != nil && s.offs[k] != 0) {
			n++
		}
	}
	for _, f := range s.fills {
		n += int(f)
	}
	return n
}

// TestPoolCap: the pool retains at most maxSlabsPerClass slabs per size. A
// slab it keeps is zeroed; one that arrives past the cap is dropped as it is
// — put does not clear memory the GC is about to take.
func TestPoolCap(t *testing.T) {
	p := NewPool()
	var kept, dropped []slab
	for i := 0; i < maxSlabsPerClass+3; i++ {
		m, err := NewIn(nil, testCfg(), 0)
		if err != nil {
			t.Fatal(err)
		}
		m.Add(7, 3, 9, 5, 10, 1)
		if i < maxSlabsPerClass {
			kept = append(kept, m.slab)
		} else {
			dropped = append(dropped, m.slab)
		}
		m.Release(p)
	}
	slabs, _ := p.Stats()
	if slabs != maxSlabsPerClass {
		t.Fatalf("pool holds %d slabs, want cap %d", slabs, maxSlabsPerClass)
	}
	for i, s := range kept {
		if n := occupied(s); n != 0 {
			t.Fatalf("kept slab %d holds %d non-zero slots and fills", i, n)
		}
	}
	for i, s := range dropped {
		if n := occupied(s); n != 2 { // the one entry and its bucket's fill
			t.Fatalf("slab %d arrived past the cap and was touched: %d non-zero slots and fills, want 2", i, n)
		}
	}
}

// TestPoolPutClearsOccupiedPrefixes: put clears only each bucket's occupied
// prefix, which zero beyond fill makes enough. Weights Sub brought to zero
// leave keys and index pairs behind, and they must go too: a slab filled at
// aggregate geometry, emptied of weight and released comes back all zero.
func TestPoolPutClearsOccupiedPrefixes(t *testing.T) {
	p := NewPool()
	cfg := Config{D: 64, B: 3, Maps: 4, FBits: 14}
	m, err := NewIn(p, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4*m.Capacity(); i++ {
		m.addOrSpill(uint32(rng.Intn(1<<cfg.FBits)), rng.Uint32(), uint32(rng.Intn(1<<cfg.FBits)), rng.Uint32(), int64(1+rng.Intn(9)))
	}
	if m.Count() != m.Capacity() {
		t.Fatalf("filled %d of %d slots; the test wants every bucket full", m.Count(), m.Capacity())
	}
	m.ForEach(func(fpS, baseS, fpD, baseD, _ uint32, w int64) {
		if !m.Sub(fpS, baseS, fpD, baseD, 0, w) {
			t.Fatalf("Sub missed stored entry %d@%d→%d@%d", fpS, baseS, fpD, baseD)
		}
	})
	for _, w := range m.ws {
		if w != 0 {
			t.Fatalf("weight %d left after Sub", w)
		}
	}
	first := &m.keys[0]
	m.Release(p)
	s := p.get(m.Capacity(), cfg.B, false)
	if &s.keys[0] != first {
		t.Fatal("pooled slab not reused")
	}
	if n := occupied(s); n != 0 {
		t.Fatalf("get returned a slab with %d non-zero slots and fills", n)
	}
}

// TestPoolConcurrentPut: put checks the cap, clears outside the lock and
// checks again, so releases racing for a class's last places must still
// respect the cap and park only zeroed slabs.
func TestPoolConcurrentPut(t *testing.T) {
	p := NewPool()
	slots := mustNew(t, testCfg(), 0).Capacity()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		ms := make([]*Matrix, 100)
		for i := range ms {
			ms[i] = mustNew(t, testCfg(), 0)
			ms[i].Add(1, 2, 3, 4, 5, 6)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(ms); i += 2 {
				ms[i].Release(p)
				ms[i+1].Release(p)
				if s := p.get(slots, testCfg().B, true); occupied(s) != 0 {
					t.Errorf("get returned a slab with %d non-zero slots and fills", occupied(s))
					return
				}
			}
		}()
	}
	wg.Wait()
	if slabs, _ := p.Stats(); slabs == 0 || slabs > maxSlabsPerClass {
		t.Fatalf("pool holds %d slabs, want 1..%d", slabs, maxSlabsPerClass)
	}
	for _, ss := range p.classes {
		for _, s := range ss {
			if n := occupied(s); n != 0 {
				t.Fatalf("parked slab holds %d non-zero slots and fills", n)
			}
		}
	}
}

// TestFillsTrackOccupancy: fills must mirror the per-bucket occupied
// prefix through Add sequences that fill buckets completely: non-zero keys
// inside it, all-zero columns beyond it.
func TestFillsTrackOccupancy(t *testing.T) {
	cfg := Config{D: 4, B: 2, Maps: 2, FBits: 8, Timed: false}
	m, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(0); k < 60; k++ {
		m.Add(k+1, k%7, k+100, (k+3)%7, 0, 1)
	}
	for bkt, f := range m.fills {
		for k := bkt * cfg.B; k < bkt*cfg.B+int(f); k++ {
			if m.keys[k] == 0 {
				t.Fatalf("bucket %d slot %d inside fill %d holds no entry", bkt, k, f)
			}
		}
	}
	zeroBeyondFill(t, m)
}

// TestHeapBytes: HeapBytes and Pool.Stats count the backing arrays actually
// held, offs only where it exists.
func TestHeapBytes(t *testing.T) {
	if got := int(reflect.TypeOf(Matrix{}).Size()); got != matrixSize {
		t.Fatalf("matrixSize = %d, struct Matrix is %d bytes", matrixSize, got)
	}
	if got := int(reflect.TypeOf(spillEntry{}).Size()); got != spillSize {
		t.Fatalf("spillSize = %d, struct spillEntry is %d bytes", spillSize, got)
	}
	if got := int(reflect.TypeOf(frozen{}).Size()); got != frozenSize {
		t.Fatalf("frozenSize = %d, struct frozen is %d bytes", frozenSize, got)
	}
	if got := int(reflect.TypeOf(colIndex{}).Size()); got != colIndexSize {
		t.Fatalf("colIndexSize = %d, struct colIndex is %d bytes", colIndexSize, got)
	}
	if got := int(reflect.TypeOf(spillRef{}).Size()); got != spillRefSize {
		t.Fatalf("spillRefSize = %d, struct spillRef is %d bytes", spillRefSize, got)
	}
	backing := func(m *Matrix) int64 {
		return int64(cap(m.keys)*8 + cap(m.ws)*8 + cap(m.idxs) + cap(m.offs)*4 + cap(m.fills) + cap(m.filter)*8)
	}
	// A timed slot costs 22 bytes: 21 of columns and one of filter.
	timed := mustNew(t, testCfg(), 0)
	if got, want := timed.HeapBytes(), int64(768*22+256+matrixSize); got != want || backing(timed) != 768*22+256 {
		t.Fatalf("timed HeapBytes = %d (backing %d), want %d", got, backing(timed), want)
	}
	// An aggregate that spilled: 4 slots of 17 bytes, 4 fill bytes, one
	// filter word, and whatever capacity append gave the spill list.
	agg := mustNew(t, Config{D: 2, B: 1, Maps: 1, FBits: 8}, 0)
	for fp := uint32(1); fp <= 3; fp++ {
		agg.addOrSpill(fp, 0, fp, 0, 1)
	}
	if agg.offs != nil || agg.SpillCount() != 2 {
		t.Fatalf("untimed matrix: offs=%v spill=%d", agg.offs != nil, agg.SpillCount())
	}
	if got, want := agg.HeapBytes(), backing(agg)+int64(cap(agg.spill)*spillSize+matrixSize); got != want || backing(agg) != 4*17+4+8 {
		t.Fatalf("untimed HeapBytes = %d (backing %d), want %d", got, backing(agg), want)
	}
	p := NewPool()
	want := backing(timed)
	timed.Release(p)
	// Frozen, the aggregate keeps its one entry in each column (17 bytes),
	// 5 bucket offsets (4 bytes each), and two sorted views of its two spill
	// entries; the dense slab is dropped, filter included, and so are the
	// frozen arrays on Release. The first ColSum adds the column index: 3
	// column offsets and a fingerprint and a position per entry (4 bytes
	// each), and its struct. A second ColSum adds nothing.
	agg.Freeze()
	frozenBytes := int64(17 + 5*4 + cap(agg.spill)*spillSize + 4*spillRefSize + matrixSize + frozenSize)
	if got := agg.HeapBytes(); got != frozenBytes || agg.IndexBytes() != 0 {
		t.Fatalf("frozen HeapBytes = %d (index %d), want %d and no index", got, agg.IndexBytes(), frozenBytes)
	}
	for range 2 {
		agg.ColSum(1, 0, math.MinInt64, math.MaxInt64)
		if got, want := agg.HeapBytes(), frozenBytes+(3+2)*4+colIndexSize; got != want || agg.IndexBytes() != want-frozenBytes {
			t.Fatalf("frozen HeapBytes after ColSum = %d (index %d), want %d", got, agg.IndexBytes(), want)
		}
	}
	if agg.Capacity() != 4 || agg.SpaceBytes() != (4*int64(agg.EntryBits())+2*(2*8+2+64)+7)/8 {
		t.Fatalf("frozen Capacity %d / SpaceBytes %d: the paper's accounting must not see Freeze", agg.Capacity(), agg.SpaceBytes())
	}
	agg.Release(p)
	if slabs, bytes := p.Stats(); slabs != 1 || bytes != want {
		t.Fatalf("pool holds %d slabs / %d bytes, want 1 / %d", slabs, bytes, want)
	}
}
