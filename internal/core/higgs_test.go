package core

import (
	"math/rand"
	"runtime"
	"testing"

	"higgs/internal/exact"
	"higgs/internal/matrix"
	"higgs/internal/query"
	"higgs/internal/stream"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mod := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	bad := []Config{
		mod(func(c *Config) { c.D1 = 0 }),
		mod(func(c *Config) { c.D1 = 12 }),
		mod(func(c *Config) { c.F1 = 0 }),
		mod(func(c *Config) { c.F1 = 40 }),
		mod(func(c *Config) { c.B = 0 }),
		mod(func(c *Config) { c.Theta = 2 }), // not a power of four
		mod(func(c *Config) { c.Theta = 8 }), // not a power of four
		mod(func(c *Config) { c.Theta = 0 }),
		mod(func(c *Config) { c.Maps = 0 }),
		mod(func(c *Config) { c.Maps = 20 }),
		mod(func(c *Config) { c.Maps = 8; c.D1 = 4 }),
		mod(func(c *Config) { c.OBBucket = 0 }),
		mod(func(c *Config) { c.D1 = 1 << 9 }),       // 2^18 · 3 slots a leaf
		mod(func(c *Config) { c.OBBucket = 1 << 9 }), // 16² · 2^9 slots a block
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
	if DefaultConfig().rbits() != 1 {
		t.Errorf("rbits(θ=4) = %d, want 1", DefaultConfig().rbits())
	}
	c16 := mod(func(c *Config) { c.Theta = 16 })
	if c16.rbits() != 2 {
		t.Errorf("rbits(θ=16) = %d, want 2", c16.rbits())
	}
}

// paperStream is the stream of paper Fig. 5 / Example 1.
func paperStream() stream.Stream {
	return stream.Stream{
		{S: 2, D: 3, W: 1, T: 1},
		{S: 4, D: 5, W: 1, T: 2},
		{S: 1, D: 2, W: 2, T: 3},
		{S: 2, D: 4, W: 1, T: 4},
		{S: 4, D: 6, W: 3, T: 5},
		{S: 2, D: 3, W: 1, T: 6},
		{S: 3, D: 7, W: 2, T: 7},
		{S: 4, D: 7, W: 2, T: 8},
		{S: 2, D: 3, W: 2, T: 9},
		{S: 6, D: 7, W: 1, T: 10},
		{S: 5, D: 6, W: 1, T: 11},
	}
}

func TestPaperExample1(t *testing.T) {
	s := MustNew(DefaultConfig())
	for _, e := range paperStream() {
		s.Insert(e)
	}
	if got := s.EdgeWeight(2, 3, 5, 10); got != 3 {
		t.Errorf("edge (2→3) in [5,10] = %d, want 3", got)
	}
	if got := s.VertexOut(4, 1, 11); got != 6 {
		t.Errorf("out(4) in [1,11] = %d, want 6", got)
	}
	if got := s.PathWeight([]uint64{1, 2, 3}, 1, 11); got != 6 {
		t.Errorf("path 1→2→3 = %d, want 6", got)
	}
	sub := [][2]uint64{{2, 3}, {3, 7}, {2, 4}}
	if got := s.SubgraphWeight(sub, 5, 8); got != 3 {
		t.Errorf("subgraph in [5,8] = %d, want 3", got)
	}
	if got := s.VertexIn(7, 1, 11); got != 5 {
		t.Errorf("in(7) in [1,11] = %d, want 5", got)
	}
	if got := s.EdgeWeight(9, 9, 0, 100); got != 0 {
		t.Errorf("absent edge = %d, want 0", got)
	}
	if got := s.EdgeWeight(2, 3, 7, 5); got != 0 {
		t.Errorf("inverted range = %d, want 0", got)
	}
}

func TestEmptySummary(t *testing.T) {
	s := MustNew(DefaultConfig())
	if s.EdgeWeight(1, 2, 0, 10) != 0 || s.VertexOut(1, 0, 10) != 0 || s.VertexIn(1, 0, 10) != 0 {
		t.Error("empty summary should answer 0")
	}
	if s.Layers() != 0 || s.Leaves() != 0 {
		t.Error("empty summary has nonzero shape")
	}
	if a := s.Probe(query.Probe{Op: query.OpEdge, S: 1, D: 2, Ts: 0, Te: 10}); a != (Answer{}) {
		t.Errorf("empty summary answers %+v", a)
	}
	if s.Delete(stream.Edge{S: 1, D: 2, W: 1, T: 5}) {
		t.Error("delete on empty summary succeeded")
	}
	s.Finalize() // must not panic
	if st := s.Stats(); st.Items != 0 {
		t.Errorf("stats items = %d", st.Items)
	}
}

// smallConfig forces frequent leaf turnover so trees grow deep quickly.
func smallConfig() Config {
	c := DefaultConfig()
	c.D1 = 4
	c.B = 1
	c.Maps = 2
	return c
}

// denseStream emits n edges over span seconds with strictly increasing
// integer timestamps when n ≤ span.
func denseStream(n int, vertices int, span int64, seed int64) stream.Stream {
	rng := rand.New(rand.NewSource(seed))
	out := make(stream.Stream, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, stream.Edge{
			S: uint64(rng.Intn(vertices)),
			D: uint64(rng.Intn(vertices)),
			W: int64(rng.Intn(4) + 1),
			T: int64(i) * span / int64(n),
		})
	}
	return out
}

func TestTreeGrowth(t *testing.T) {
	s := MustNew(smallConfig())
	st := denseStream(3000, 50, 30000, 1)
	for _, e := range st {
		s.Insert(e)
	}
	if s.Leaves() < 16 {
		t.Fatalf("only %d leaves; stream should overflow many", s.Leaves())
	}
	if s.Layers() < 3 {
		t.Fatalf("tree height %d; want ≥ 3", s.Layers())
	}
	// Structural invariants.
	var walk func(n *node, level int32)
	walk = func(n *node, level int32) {
		if n.level != level {
			t.Fatalf("node at level %d recorded level %d", level, n.level)
		}
		kids := s.ar.children(n)
		if n.level == 1 {
			if n.mat == nil {
				t.Fatal("leaf without matrix")
			}
			if len(kids) != 0 {
				t.Fatal("leaf with children")
			}
			return
		}
		if len(kids) == 0 || len(kids) > s.cfg.Theta {
			t.Fatalf("level-%d node has %d children (θ=%d)", n.level, len(kids), s.cfg.Theta)
		}
		for i := 1; i < len(kids); i++ {
			if s.ar.node(nodeID(kids[i])).firstT < s.ar.node(nodeID(kids[i-1])).firstT {
				t.Fatalf("children out of time order at level %d", n.level)
			}
		}
		for _, id := range kids {
			walk(s.ar.node(nodeID(id)), level-1)
		}
	}
	walk(s.root, s.root.level)
	if got := s.Items(); got != 3000 {
		t.Fatalf("Items = %d, want 3000", got)
	}
}

// TestOneSidedError: HIGGS must never under-estimate (paper §V-D), for all
// three query primitives, at every range length, before and after Finalize.
func TestOneSidedError(t *testing.T) {
	st := denseStream(5000, 120, 50000, 2)
	truth := exact.FromStream(st)
	for _, finalize := range []bool{false, true} {
		s := MustNew(smallConfig())
		for _, e := range st {
			s.Insert(e)
		}
		if finalize {
			s.Finalize()
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 400; i++ {
			ts := int64(rng.Intn(50000))
			te := ts + int64(rng.Intn(20000))
			sv, dv := uint64(rng.Intn(120)), uint64(rng.Intn(120))
			if got, want := s.EdgeWeight(sv, dv, ts, te), truth.EdgeWeight(sv, dv, ts, te); got < want {
				t.Fatalf("finalize=%v: edge (%d,%d) [%d,%d]: HIGGS %d < truth %d",
					finalize, sv, dv, ts, te, got, want)
			}
			if got, want := s.VertexOut(sv, ts, te), truth.VertexOut(sv, ts, te); got < want {
				t.Fatalf("finalize=%v: out(%d) [%d,%d]: HIGGS %d < truth %d", finalize, sv, ts, te, got, want)
			}
			if got, want := s.VertexIn(dv, ts, te), truth.VertexIn(dv, ts, te); got < want {
				t.Fatalf("finalize=%v: in(%d) [%d,%d]: HIGGS %d < truth %d", finalize, dv, ts, te, got, want)
			}
		}
	}
}

// TestDefaultConfigNearExact: with the paper's configuration the hash range
// Z is ~8.4M, so a small stream should be answered essentially exactly.
func TestDefaultConfigNearExact(t *testing.T) {
	st := denseStream(20000, 300, 200000, 4)
	truth := exact.FromStream(st)
	s := MustNew(DefaultConfig())
	for _, e := range st {
		s.Insert(e)
	}
	rng := rand.New(rand.NewSource(5))
	var absErr, n float64
	for i := 0; i < 300; i++ {
		ts := int64(rng.Intn(200000))
		te := ts + int64(rng.Intn(100000))
		sv, dv := uint64(rng.Intn(300)), uint64(rng.Intn(300))
		got, want := s.EdgeWeight(sv, dv, ts, te), truth.EdgeWeight(sv, dv, ts, te)
		if got < want {
			t.Fatalf("undercount: %d < %d", got, want)
		}
		absErr += float64(got - want)
		n++
	}
	if aae := absErr / n; aae > 0.5 {
		t.Fatalf("AAE %.3f too high for default config on small stream", aae)
	}
}

// TestAggregateConsistency: the full-range query answered through sealed
// aggregates (after Finalize) must equal the answer assembled from leaf
// matrices (before Finalize) — aggregation adds no error.
func TestAggregateConsistency(t *testing.T) {
	st := denseStream(4000, 80, 40000, 6)
	a := MustNew(smallConfig())
	b := MustNew(smallConfig())
	for _, e := range st {
		a.Insert(e)
		b.Insert(e)
	}
	b.Finalize()
	first, last := st[0].T, st[len(st)-1].T
	for v := uint64(0); v < 80; v++ {
		if ga, gb := a.VertexOut(v, first, last), b.VertexOut(v, first, last); ga != gb {
			t.Fatalf("out(%d): leaf-path %d vs aggregate-path %d", v, ga, gb)
		}
		for d := uint64(0); d < 80; d += 7 {
			if ga, gb := a.EdgeWeight(v, d, first, last), b.EdgeWeight(v, d, first, last); ga != gb {
				t.Fatalf("edge (%d,%d): leaf-path %d vs aggregate-path %d", v, d, ga, gb)
			}
		}
	}
	// The aggregate path must touch far fewer matrices.
	if ca, cb := matrices(a, first, last), matrices(b, first, last); cb >= ca {
		t.Fatalf("aggregates not used: %d matrices before finalize, %d after", ca, cb)
	}
}

func TestRangeDecompositionBound(t *testing.T) {
	s := MustNew(smallConfig())
	st := denseStream(4000, 80, 40000, 7)
	for _, e := range st {
		s.Insert(e)
	}
	s.Finalize()
	// A point query touches at most one leaf (plus its overflow blocks).
	if c := matrices(s, 20000, 20000); c > 4 {
		t.Fatalf("point query touches %d matrices", c)
	}
	// The full range touches O(1) matrices after finalize (root + open
	// fringe), far fewer than the number of leaves.
	full := matrices(s, 0, 40000)
	if full >= s.Leaves() {
		t.Fatalf("full-range decomposition (%d) not better than leaf scan (%d leaves)", full, s.Leaves())
	}
	// Paper bound: ≤ 2(θ−1)·log_θ(n1) + O(θ) matrices for any range.
	layers := s.Layers()
	bound := 2*(s.cfg.Theta-1)*layers + 2*s.cfg.Theta
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		ts := int64(rng.Intn(40000))
		te := ts + int64(rng.Intn(40000-int(ts)))
		if c := matrices(s, ts, te); c > bound {
			t.Fatalf("range [%d,%d] touches %d matrices, bound %d", ts, te, c, bound)
		}
	}
}

// matrices is the number of matrices the probe walk visits for [ts, te].
func matrices(s *Summary, ts, te int64) int {
	return s.Probe(query.Probe{Op: query.OpVertexOut, Ts: ts, Te: te}).Matrices
}

// TestProbeMatrices pins Answer.Matrices exactly, whatever the op: after
// Finalize a whole-range probe visits the root's aggregate alone, and a
// point query inside a leaf that spans more than one timestamp visits that
// leaf and each of its overflow blocks (with overflow blocks on, leaves'
// time ranges are disjoint, and no ancestor fits inside the point).
func TestProbeMatrices(t *testing.T) {
	c := smallConfig()
	c.OverflowBlocks = true
	s := MustNew(c)
	rng := rand.New(rand.NewSource(21))
	for ts := int64(0); ts < 3000; ts++ {
		n := 1
		if ts%25 == 0 {
			n = 40 // a burst on one timestamp fills overflow blocks
		}
		for range n {
			s.Insert(stream.Edge{S: uint64(rng.Intn(60)), D: uint64(rng.Intn(60)), W: 1, T: ts})
		}
	}
	s.Finalize()
	ops := []query.Op{query.OpEdge, query.OpVertexOut, query.OpVertexIn}
	for _, op := range ops {
		if got := s.Probe(query.Probe{Op: op, S: 1, D: 2, Ts: 0, Te: 3000}).Matrices; got != 1 {
			t.Fatalf("op %d: a whole-range probe after Finalize visits %d matrices, want 1", op, got)
		}
	}
	points, withBlocks := 0, 0
	for id := range s.ar.nextNode {
		n := s.ar.node(nodeID(id))
		if n.level != 1 || n.firstT == n.lastT {
			continue
		}
		points++
		if len(n.obs) > 0 {
			withBlocks++
		}
		tp := n.firstT + int64(id)%(n.lastT-n.firstT+1)
		if got, want := s.Probe(query.Probe{Op: ops[id%3], S: 1, D: 2, Ts: tp, Te: tp}).Matrices, 1+len(n.obs); got != want {
			t.Fatalf("point %d in leaf [%d, %d] with %d overflow blocks visits %d matrices, want %d", tp, n.firstT, n.lastT, len(n.obs), got, want)
		}
	}
	if points == 0 || withBlocks == 0 {
		t.Fatalf("%d multi-timestamp leaves, %d with overflow blocks: the fixture is not what it says", points, withBlocks)
	}
}

func TestOverflowBlocks(t *testing.T) {
	// Heavy timestamp duplication: with OB on, far fewer leaves.
	mk := func(ob bool) *Summary {
		c := smallConfig()
		c.OverflowBlocks = ob
		s := MustNew(c)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 2000; i++ {
			s.Insert(stream.Edge{
				S: uint64(rng.Intn(50)), D: uint64(rng.Intn(50)), W: 1,
				T: int64(i / 200), // 200 edges per timestamp
			})
		}
		return s
	}
	with, without := mk(true), mk(false)
	if with.Stats().OverflowBlocks == 0 {
		t.Fatal("no overflow blocks created under timestamp duplication")
	}
	if with.Leaves() >= without.Leaves() {
		t.Fatalf("OB did not reduce leaves: %d with vs %d without", with.Leaves(), without.Leaves())
	}
	// Both variants answer identically (our range attribution is exact).
	truth := func() *exact.Store {
		st := exact.New()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 2000; i++ {
			st.Insert(stream.Edge{S: uint64(rng.Intn(50)), D: uint64(rng.Intn(50)), W: 1, T: int64(i / 200)})
		}
		return st
	}()
	for v := uint64(0); v < 50; v++ {
		w1, w2 := with.VertexOut(v, 2, 7), without.VertexOut(v, 2, 7)
		if w1 < truth.VertexOut(v, 2, 7) || w2 < truth.VertexOut(v, 2, 7) {
			t.Fatalf("undercount with/without OB: %d/%d < %d", w1, w2, truth.VertexOut(v, 2, 7))
		}
	}
}

func TestDelete(t *testing.T) {
	s := MustNew(DefaultConfig())
	for _, e := range paperStream() {
		s.Insert(e)
	}
	if !s.Delete(stream.Edge{S: 2, D: 3, W: 1, T: 6}) {
		t.Fatal("delete of existing item failed")
	}
	if got := s.EdgeWeight(2, 3, 5, 10); got != 2 {
		t.Errorf("edge (2→3) in [5,10] after delete = %d, want 2", got)
	}
	if s.Delete(stream.Edge{S: 2, D: 3, W: 1, T: 999}) {
		t.Error("delete of absent timestamp succeeded")
	}
	if s.Delete(stream.Edge{S: 8, D: 9, W: 1, T: 6}) {
		t.Error("delete of absent edge succeeded")
	}
}

func TestDeletePropagatesToAggregates(t *testing.T) {
	s := MustNew(smallConfig())
	st := denseStream(3000, 60, 30000, 10)
	for _, e := range st {
		s.Insert(e)
	}
	s.Finalize()
	truth := exact.FromStream(st)
	before := make(map[uint64]int64)
	for v := uint64(0); v < 60; v++ {
		before[v] = s.VertexOut(v, 0, 30000)
	}
	// Delete the first 100 items and verify full-range queries (which are
	// served from sealed aggregates) reflect the removals: every source
	// of a deleted item reads at least its deleted weight lower.
	deleted := make(map[uint64]int64)
	for _, e := range st[:100] {
		if !s.Delete(e) {
			t.Fatalf("delete of replayed item %+v failed", e)
		}
		truth.Delete(e)
		deleted[e.S] += e.W
	}
	for v := uint64(0); v < 60; v++ {
		got, want := s.VertexOut(v, 0, 30000), truth.VertexOut(v, 0, 30000)
		if got < want {
			t.Fatalf("out(%d) after deletes: %d < %d", v, got, want)
		}
		if drop := before[v] - got; drop < deleted[v] {
			t.Fatalf("out(%d) dropped by %d after deleting weight %d from it", v, drop, deleted[v])
		}
	}
}

// TestDeletesDuringInsertNeverUndercount interleaves deletes of recent
// items with the stream, on one P so that nothing but the insert path runs
// between them, and checks the paper's one-sided-error contract on every
// distinct edge and source vertex once the stream ends. A delete that
// reaches a closed node whose aggregate is built after the leaf was
// decremented would subtract the same weight twice and read below exact.
func TestDeletesDuringInsertNeverUndercount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	st, err := stream.Load(stream.Lkml, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(DefaultConfig())
	truth := exact.New()
	deleted := 0
	for i, e := range st {
		s.Insert(e)
		truth.Insert(e)
		if i >= 40 && i%7 == 0 {
			if d := st[i-40]; s.Delete(d) {
				truth.Delete(d)
				deleted++
			}
		}
	}
	s.Finalize()
	if deleted == 0 {
		t.Fatal("no delete found its item")
	}
	ts, te := truth.Span()
	edges, under := truth.Edges(), 0
	for _, e := range edges {
		if got, want := s.EdgeWeight(e[0], e[1], ts, te), truth.EdgeWeight(e[0], e[1], ts, te); got < want {
			under++
		}
	}
	vertices, vunder := truth.Vertices(), 0
	for _, v := range vertices {
		if got, want := s.VertexOut(v, ts, te), truth.VertexOut(v, ts, te); got < want {
			vunder++
		}
	}
	if under > 0 || vunder > 0 {
		t.Fatalf("after %d deletes, %d of %d edges and %d of %d vertices read below exact",
			deleted, under, len(edges), vunder, len(vertices))
	}
}

func TestOutOfOrderClamped(t *testing.T) {
	s := MustNew(DefaultConfig())
	s.Insert(stream.Edge{S: 1, D: 2, W: 1, T: 100})
	s.Insert(stream.Edge{S: 1, D: 2, W: 1, T: 50}) // late: clamped to 100
	if st := s.Stats(); st.Clamped != 1 {
		t.Fatalf("Clamped = %d, want 1", st.Clamped)
	}
	if got := s.EdgeWeight(1, 2, 100, 100); got != 2 {
		t.Fatalf("both items should sit at t=100, got weight %d", got)
	}
}

func TestFinalizeRejectsInserts(t *testing.T) {
	s := MustNew(DefaultConfig())
	s.Insert(stream.Edge{S: 1, D: 2, W: 1, T: 1})
	s.Finalize()
	s.Finalize() // idempotent
	s.Insert(stream.Edge{S: 1, D: 2, W: 1, T: 2})
	if st := s.Stats(); st.Rejected != 1 || st.Items != 1 {
		t.Fatalf("Rejected/Items = %d/%d, want 1/1", st.Rejected, st.Items)
	}
}

func TestHugeTimeJumpOpensNewLeaf(t *testing.T) {
	s := MustNew(DefaultConfig())
	s.Insert(stream.Edge{S: 1, D: 2, W: 1, T: 0})
	s.Insert(stream.Edge{S: 1, D: 2, W: 1, T: int64(1) << 40}) // offset overflows uint32
	if s.Leaves() != 2 {
		t.Fatalf("Leaves = %d, want 2 after offset overflow", s.Leaves())
	}
	if got := s.EdgeWeight(1, 2, 0, 1<<41); got != 2 {
		t.Fatalf("EdgeWeight = %d, want 2", got)
	}
	if got := s.EdgeWeight(1, 2, 1, 1<<41); got != 1 {
		t.Fatalf("EdgeWeight tail = %d, want 1", got)
	}
}

func TestStats(t *testing.T) {
	s := MustNew(smallConfig())
	st := denseStream(2000, 40, 20000, 13)
	for _, e := range st {
		s.Insert(e)
	}
	s.Finalize()
	stats := s.Stats()
	if stats.Items != 2000 {
		t.Errorf("Items = %d", stats.Items)
	}
	if stats.SpaceBytes <= 0 || stats.HeapBytes <= 0 {
		t.Error("space accounting not positive")
	}
	if stats.HeapBytes < stats.SpaceBytes {
		t.Error("heap bytes should not undercut packed bytes for this layout")
	}
	if stats.AvgLeafUtil <= 0 || stats.AvgLeafUtil > 1 {
		t.Errorf("AvgLeafUtil = %g out of (0,1]", stats.AvgLeafUtil)
	}
	if stats.Layers < 2 || stats.Leaves < 4 || stats.Nodes < stats.Leaves {
		t.Errorf("implausible shape: %+v", stats)
	}
	if stats.SealedMatrices == 0 {
		t.Error("no sealed matrices after finalize")
	}
}

// TestStatsBuildsNoColumnIndex: Stats forces pending seals but builds no read
// index, and neither does HeapBytes. A VertexIn afterwards raises HeapBytes
// by exactly the column index bytes of the frozen aggregates its range
// decomposition touched, and indexes no other matrix; a second VertexIn over
// the same range, a VertexOut and an EdgeWeight raise it by nothing.
func TestStatsBuildsNoColumnIndex(t *testing.T) {
	s := MustNew(smallConfig())
	for _, e := range denseStream(2000, 40, 20000, 13) {
		s.Insert(e)
	}
	st := s.Stats()
	var aggs []*matrix.Matrix
	var walk func(n *node)
	walk = func(n *node) {
		if n.level > 1 && n.sealed() {
			aggs = append(aggs, n.mat)
		}
		for _, id := range s.ar.children(n) {
			walk(s.ar.node(nodeID(id)))
		}
	}
	walk(s.root)
	if len(aggs) != st.SealedMatrices || len(aggs) == 0 {
		t.Fatalf("walked %d sealed aggregates, Stats counts %d", len(aggs), st.SealedMatrices)
	}
	indexed := func() (n int, bytes int64) {
		for _, m := range aggs {
			if b := m.IndexBytes(); b > 0 {
				n, bytes = n+1, bytes+b
			}
		}
		return n, bytes
	}
	if n, _ := indexed(); n != 0 || s.HeapBytes() != st.HeapBytes {
		t.Fatalf("Stats and HeapBytes left %d column indexes; HeapBytes %d, Stats %d", n, s.HeapBytes(), st.HeapBytes)
	}
	const ts, te = 3000, 17000
	// touched is the set of aggregates the walk's decomposition of [ts, te]
	// uses whole.
	touched := map[*matrix.Matrix]bool{}
	var cover func(n *node)
	cover = func(n *node) {
		last := n.last(s.lastT)
		switch {
		case n.firstT > te || last < ts:
		case n.level > 1 && n.closed && ts <= n.firstT && last <= te:
			touched[n.mat] = true
		default:
			for _, id := range s.ar.children(n) {
				cover(s.ar.node(nodeID(id)))
			}
		}
	}
	cover(s.root)
	s.VertexIn(7, ts, te)
	var want int64
	frozen := 0
	for _, m := range aggs {
		switch b := m.IndexBytes(); {
		case touched[m] && b == 0:
			t.Fatal("VertexIn read a frozen aggregate without indexing it")
		case !touched[m] && b != 0:
			t.Fatal("VertexIn indexed a matrix outside its decomposition")
		case touched[m]:
			want += b
			frozen++
		}
	}
	if frozen == 0 {
		t.Fatal("the window covers no sealed aggregate: the fixture is not what it says")
	}
	if got := s.HeapBytes() - st.HeapBytes; got != want {
		t.Fatalf("VertexIn over %d aggregates raised HeapBytes by %d, their indexes hold %d", frozen, got, want)
	}
	s.VertexIn(8, ts, te)
	s.VertexOut(7, 0, 20000)
	s.EdgeWeight(7, 8, 0, 20000)
	if n, bytes := indexed(); n != frozen || s.HeapBytes() != st.HeapBytes+want || bytes != want {
		t.Fatalf("later probes: %d indexes of %d bytes, HeapBytes %d; want %d of %d, %d", n, bytes, s.HeapBytes(), frozen, want, st.HeapBytes+want)
	}
}

func TestMMBImprovesUtilization(t *testing.T) {
	run := func(maps int) float64 {
		c := DefaultConfig()
		c.Maps = maps
		s := MustNew(c)
		for _, e := range denseStream(30000, 400, 300000, 14) {
			s.Insert(e)
		}
		return s.Stats().AvgLeafUtil
	}
	if u1, u4 := run(1), run(4); u4 <= u1 {
		t.Fatalf("MMB did not improve utilization: maps=1 %.3f vs maps=4 %.3f", u1, u4)
	}
}

func BenchmarkInsert(b *testing.B) {
	st := denseStream(200000, 5000, 2_000_000, 15)
	b.ResetTimer()
	s := MustNew(DefaultConfig())
	for i := 0; i < b.N; i++ {
		s.Insert(st[i%len(st)])
	}
}

// probeSink keeps BenchmarkProbe's answers live.
var probeSink Answer

// BenchmarkProbe times one probe walk per op over a finalized 100K-edge
// summary, each window 100K seconds wide and sliding across the stream.
func BenchmarkProbe(b *testing.B) {
	s := MustNew(DefaultConfig())
	st := denseStream(100000, 2000, 1_000_000, 16)
	for _, e := range st {
		s.Insert(e)
	}
	s.Finalize()
	for _, bc := range []struct {
		name string
		op   query.Op
	}{{"edge", query.OpEdge}, {"out", query.OpVertexOut}, {"in", query.OpVertexIn}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ts := int64(i % 900000)
				probeSink = s.Probe(query.Probe{Op: bc.op, S: uint64(i % 2000), D: uint64((i + 7) % 2000), Ts: ts, Te: ts + 100000})
			}
		})
	}
}
