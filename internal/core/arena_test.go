package core

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"higgs/internal/matrix"
	"higgs/internal/stream"
	"higgs/internal/wire"
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

// TestSnapshotFixtureRoundTrip: the committed fixtures are version-1
// snapshots, aggregates included, and the decoder refuses every one of them
// at the header with an error naming the version: the two core fixtures and
// each shard's blob in the sharded one.
func TestSnapshotFixtureRoundTrip(t *testing.T) {
	blobs := map[string][]byte{}
	for _, name := range []string{"testdata/prerefactor_open.higgs", "testdata/prerefactor_final.higgs"} {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		blobs[name] = raw
	}
	for i, sh := range readShardedFrame(t, "../shard/testdata/prerefactor_sharded.higgs") {
		blobs[fmt.Sprintf("sharded shard %d", i)] = sh.blob
	}
	for name, raw := range blobs {
		if s, err := Decode(raw); err == nil || s != nil || !strings.Contains(err.Error(), "snapshot version: got 1, want 2") {
			t.Errorf("%s: Decode = %v, %v; want a refusal naming version 1", name, s, err)
		}
	}
}

// TestSnapshotFixtureRebuild replays the fixture stream through the
// current implementation and requires its version-1 encoding (appendV1) to
// equal the committed fixtures — mid-stream (open spine) and finalized —
// both directly and after a round trip through the version-2 codec, whose
// decoded leaves must seal into the aggregates the live summary held.
func TestSnapshotFixtureRebuild(t *testing.T) {
	st, cfg := loadFixtureStream(t)
	open, err := os.ReadFile("testdata/prerefactor_open.higgs")
	if err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile("testdata/prerefactor_final.higgs")
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, s *Summary, want []byte) {
		t.Helper()
		if got := appendV1(s); !bytes.Equal(got, want) {
			t.Fatalf("%s: version-1 encoding differs from the fixture (%d vs %d bytes)", what, len(got), len(want))
		}
		rt, err := Decode(s.AppendSnapshot(nil))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := appendV1(rt); !bytes.Equal(got, want) {
			t.Fatalf("%s, through version 2: version-1 encoding differs from the fixture (%d vs %d bytes)", what, len(got), len(want))
		}
	}
	s := MustNew(cfg)
	for _, e := range st[:len(st)/2] {
		s.Insert(e)
	}
	check("open", s, open)
	// The open summary, and its version-2 round trip, must keep accepting
	// the rest of the stream and then match the finalized fixture.
	restored, err := Decode(s.AppendSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, s2 := range []*Summary{s, restored} {
		for _, e := range st[len(st)/2:] {
			s2.Insert(e)
		}
		s2.Finalize()
		check(fmt.Sprintf("final %d", i), s2, final)
	}
}

// shardFrame is one shard of a sharded snapshot frame: its durability
// watermark and its core snapshot blob.
type shardFrame struct {
	seq  uint64
	blob []byte
}

// readShardedFrame splits a sharded snapshot file (internal/shard's frame
// version 2: magic, version, shard count, then per shard a watermark and a
// length-prefixed core snapshot) into its shards.
func readShardedFrame(t *testing.T, name string) []shardFrame {
	t.Helper()
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(raw)
	r.Expect(0x48494753, "sharded snapshot magic")
	r.Expect(2, "sharded snapshot version")
	out := make([]shardFrame, r.Int())
	for i := range out {
		out[i] = shardFrame{seq: r.U64(), blob: r.Bytes(len(raw))}
	}
	if err := r.Err(); err != nil || r.Len() != 0 {
		t.Fatalf("%s: %v, %d bytes left over", name, err, r.Len())
	}
	return out
}

// TestShardedFixtureTwin: the version-2 sharded fixture is the version-1
// one without aggregates. Shard for shard the watermarks are equal, and the
// version-1 encoding of the decoded version-2 blob, every aggregate sealed
// from the decoded leaves, is the version-1 blob byte for byte.
func TestShardedFixtureTwin(t *testing.T) {
	v1 := readShardedFrame(t, "../shard/testdata/prerefactor_sharded.higgs")
	v2 := readShardedFrame(t, "../shard/testdata/sharded_v2.higgs")
	if len(v1) != 4 || len(v2) != len(v1) {
		t.Fatalf("%d shards in the version-1 fixture, %d in its twin; want 4 and 4", len(v1), len(v2))
	}
	for i := range v1 {
		s, err := Decode(v2[i].blob)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if v2[i].seq != v1[i].seq {
			t.Errorf("shard %d: watermark %d in the twin, %d in the version-1 fixture", i, v2[i].seq, v1[i].seq)
		}
		if got := appendV1(s); !bytes.Equal(got, v1[i].blob) {
			t.Errorf("shard %d: version-1 encoding of the twin differs from the fixture (%d vs %d bytes)", i, len(got), len(v1[i].blob))
		}
		if len(v2[i].blob) >= len(v1[i].blob) {
			t.Errorf("shard %d: the twin's blob is %d bytes, the version-1 one %d", i, len(v2[i].blob), len(v1[i].blob))
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
