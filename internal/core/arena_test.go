package core

import (
	"bytes"
	"os"
	"testing"

	"higgs/internal/matrix"
	"higgs/internal/stream"
)

// loadFixtureStream regenerates the deterministic stream the committed
// pre-refactor fixtures were built from (lkml preset, scale 0.25, hash
// seed 42 — see testdata/README).
func loadFixtureStream(t testing.TB) (stream.Stream, Config) {
	t.Helper()
	st, err := stream.Load(stream.Lkml, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 42
	return st, cfg
}

// TestSnapshotFixtureRoundTrip proves the arena-backed layout reads
// snapshots written by the pre-refactor pointer-linked layout and
// re-encodes them byte-for-byte — the equivalence contract behind the
// bench gates.
func TestSnapshotFixtureRoundTrip(t *testing.T) {
	for _, name := range []string{"testdata/prerefactor_open.higgs", "testdata/prerefactor_final.higgs"} {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(raw, buf.Bytes()) {
			t.Fatalf("%s: re-encode differs (%d vs %d bytes)", name, buf.Len(), len(raw))
		}
	}
}

// TestSnapshotFixtureRebuild replays the fixture stream through the
// current implementation and requires the snapshot bytes to equal the
// committed pre-refactor output — mid-stream (open spine) and finalized.
func TestSnapshotFixtureRebuild(t *testing.T) {
	st, cfg := loadFixtureStream(t)

	s := MustNew(cfg)
	for _, e := range st[:len(st)/2] {
		s.Insert(e)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/prerefactor_open.higgs")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatalf("open snapshot differs from pre-refactor fixture (%d vs %d bytes)", buf.Len(), len(raw))
	}
	// The open snapshot must keep accepting the rest of the stream and then
	// match the finalized fixture exactly.
	restored, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, s2 := range []*Summary{s, restored} {
		for _, e := range st[len(st)/2:] {
			s2.Insert(e)
		}
		s2.Finalize()
	}
	want, err := os.ReadFile("testdata/prerefactor_final.higgs")
	if err != nil {
		t.Fatal(err)
	}
	for i, s2 := range []*Summary{s, restored} {
		var out bytes.Buffer
		if _, err := s2.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, out.Bytes()) {
			t.Fatalf("final snapshot %d differs from pre-refactor fixture (%d vs %d bytes)", i, out.Len(), len(want))
		}
	}
}

// TestSteadyStateInsertAllocs: re-inserting an existing (s, d, t) item
// merges into its leaf slot — the steady-state ingest hot loop — and must
// not allocate, on a summary holding one edge and on one warmed with a
// whole preset stream (a deep tree of sealed, frozen aggregates).
func TestSteadyStateInsertAllocs(t *testing.T) {
	st, cfg := loadFixtureStream(t)
	for _, c := range []struct {
		name string
		warm stream.Stream
	}{
		{"one edge", stream.Stream{{S: 1, D: 2, W: 1, T: 100}}},
		{"lkml stream", st},
	} {
		s := MustNew(cfg)
		for _, e := range c.warm {
			s.Insert(e)
		}
		e := c.warm[len(c.warm)-1]
		s.Insert(e)
		if n := testing.AllocsPerRun(1000, func() { s.Insert(e) }); n != 0 {
			t.Fatalf("%s: steady-state Insert allocates %.2f allocs/op, want 0", c.name, n)
		}
	}
}

// TestEdgeWeightAllocs: the edge- and vertex-query hot loops must not
// allocate, over a summary whose sealed aggregates are frozen and spilled.
func TestEdgeWeightAllocs(t *testing.T) {
	st, cfg := loadFixtureStream(t)
	s := MustNew(cfg)
	for _, e := range st {
		s.Insert(e)
	}
	s.Finalize()
	if stats := s.Stats(); stats.SealedMatrices == 0 || stats.SpillEntries == 0 {
		t.Fatalf("%d sealed aggregates, %d spill entries: the probes would miss the frozen kernels", stats.SealedMatrices, stats.SpillEntries)
	}
	e := st[len(st)/2]
	for _, p := range []struct {
		name  string
		probe func()
	}{
		{"EdgeWeight", func() { s.EdgeWeight(e.S, e.D, 0, 1<<40) }},
		{"VertexOut", func() { s.VertexOut(e.S, 0, 1<<40) }},
		{"VertexIn", func() { s.VertexIn(e.D, 0, 1<<40) }},
	} {
		if n := testing.AllocsPerRun(1000, p.probe); n != 0 {
			t.Fatalf("%s allocates %.2f allocs/op, want 0", p.name, n)
		}
	}
}

// TestExpireRecyclesArena: after Expire, the matrix slabs and arena slots
// of dropped subtrees must feed subsequent growth — the pool holds slabs
// right after expiry, new leaves consume them, and node slots are reused.
func TestExpireRecyclesArena(t *testing.T) {
	st, cfg := loadFixtureStream(t)
	s := MustNew(cfg)
	half := len(st) / 2
	for _, e := range st[:half] {
		s.Insert(e)
	}
	nodesBefore := s.ar.liveNodes()
	cutoff := st[half-1].T / 2
	if dropped := s.Expire(cutoff); dropped == 0 {
		t.Fatalf("Expire(%d) dropped nothing; fixture stream should have old leaves", cutoff)
	}
	if s.ar.liveNodes() >= nodesBefore {
		t.Fatalf("live nodes %d not reduced from %d by Expire", s.ar.liveNodes(), nodesBefore)
	}
	slabs, bytes := s.pool.Stats()
	if slabs == 0 || bytes == 0 {
		t.Fatalf("pool empty after Expire (slabs=%d bytes=%d); dropped slabs must be recycled", slabs, bytes)
	}
	// Parked slabs are still the summary's memory: HeapBytes counts them.
	held, pool := s.Stats().HeapBytes, s.pool
	s.pool = nil
	if live := s.Stats().HeapBytes; held != live+bytes {
		t.Fatalf("HeapBytes %d with the pool, %d without: want a difference of the %d pooled bytes", held, live, bytes)
	}
	s.pool = pool
	// Growth after expiry must consume pooled slabs, not allocate fresh ones.
	for _, e := range st[half:] {
		s.Insert(e)
	}
	slabsAfter, _ := s.pool.Stats()
	if slabsAfter >= slabs {
		t.Fatalf("pool still holds %d slabs (was %d); new leaves should reuse them", slabsAfter, slabs)
	}
	// Queries over the surviving window still answer with one-sided error.
	s.Finalize()
	if got := s.EdgeWeight(st[half].S, st[half].D, cutoff, 1<<40); got < 0 {
		t.Fatalf("negative weight %d after expire", got)
	}
}

// TestPoolHoldsTimedSlabsOnly: seals build their aggregates frozen, so after
// seals at three levels and more and an Expire that drops sealed subtrees,
// every slab the pool holds is a leaf's or an overflow block's. Stats pays
// the pending seals first: a closed node seals on its first read.
func TestPoolHoldsTimedSlabsOnly(t *testing.T) {
	st, cfg := loadFixtureStream(t)
	s := MustNew(cfg)
	for _, e := range st {
		s.Insert(e)
	}
	s.Stats()
	levels := map[int32]bool{}
	var walk func(n *node)
	walk = func(n *node) {
		if n.sealed() {
			levels[n.level] = true
		}
		for _, id := range s.ar.children(n) {
			walk(s.ar.node(nodeID(id)))
		}
	}
	walk(s.root)
	if len(levels) < 3 {
		t.Fatalf("seals at %d levels, want ≥ 3", len(levels))
	}
	if s.Expire(st[len(st)-1].T/2) == 0 {
		t.Fatal("Expire dropped nothing")
	}
	// The size of one pooled slab of each timed geometry.
	slabBytes := func(c matrix.Config) int64 {
		p := matrix.NewPool()
		m, err := matrix.NewIn(p, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		m.Release(p)
		_, b := p.Stats()
		return b
	}
	obCfg := s.leafCfg()
	obCfg.B = cfg.OBBucket
	leafBytes, obBytes := slabBytes(s.leafCfg()), slabBytes(obCfg)
	slabs, bytes := s.pool.Stats()
	if slabs == 0 {
		t.Fatal("the pool is empty after Expire")
	}
	for leaves := 0; leaves <= slabs; leaves++ {
		if int64(leaves)*leafBytes+int64(slabs-leaves)*obBytes == bytes {
			return
		}
	}
	t.Fatalf("the pool holds %d slabs of %d bytes: not leaf slabs (%d B) and overflow-block slabs (%d B) alone",
		slabs, bytes, leafBytes, obBytes)
}
