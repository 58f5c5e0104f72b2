package shard

import (
	"bytes"
	"os"
	"testing"

	"higgs/internal/query"
	"higgs/internal/stream"
)

// fixtureSet rebuilds the sharded summary the committed pre-refactor
// fixture was generated from: default 4-shard config, hash seed 42, full
// lkml stream at scale 0.25.
func fixtureSet(t testing.TB) (*Summary, stream.Stream) {
	t.Helper()
	st, err := stream.Load(stream.Lkml, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Core.Seed = 42
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range st {
		s.Insert(e)
	}
	return s, st
}

// TestShardedFixtureByteIdentity proves sharded snapshot frames are
// byte-identical to the pre-refactor layout: rebuild the fixture stream,
// encode, and compare against the committed bytes; then round-trip.
func TestShardedFixtureByteIdentity(t *testing.T) {
	raw, err := os.ReadFile("testdata/prerefactor_sharded.higgs")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := fixtureSet(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatalf("sharded snapshot differs from pre-refactor fixture (%d vs %d bytes)", buf.Len(), len(raw))
	}
	restored, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := restored.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again.Bytes()) {
		t.Fatalf("decode/re-encode differs (%d vs %d bytes)", again.Len(), len(raw))
	}
}

// TestProbeShardAllocs: single-shard edge and vertex probes — the batch
// executor's hot loop — must not allocate, over sealed aggregates that are
// frozen and spilled: on the 4-shard fixture mid-stream, and on one shard
// holding the whole stream after Finalize.
func TestProbeShardAllocs(t *testing.T) {
	four, st := fixtureSet(t)
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.Core.Seed = 42
	one, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range st {
		one.Insert(e)
	}
	one.Finalize()
	for _, s := range []*Summary{four, one} {
		if stats := s.Stats().Total; stats.SealedMatrices == 0 || stats.SpillEntries == 0 {
			t.Fatalf("%d shards: %d sealed aggregates, %d spill entries: the probes would miss the frozen kernels",
				s.NumShards(), stats.SealedMatrices, stats.SpillEntries)
		}
		e := st[0]
		shard := s.ShardFor(e.S)
		out := make([]int64, 1)
		for _, p := range []query.Probe{
			{Op: query.OpEdge, S: e.S, D: e.D, Ts: 0, Te: 1 << 40},
			{Op: query.OpVertexOut, S: e.S, Ts: 0, Te: 1 << 40},
			{Op: query.OpVertexIn, S: e.D, Ts: 0, Te: 1 << 40},
		} {
			probes := []query.Probe{p}
			s.ProbeShard(shard, probes, out)
			if n := testing.AllocsPerRun(1000, func() { s.ProbeShard(shard, probes, out) }); n != 0 {
				t.Fatalf("%d shards: ProbeShard op %d allocates %.2f allocs/op, want 0", s.NumShards(), p.Op, n)
			}
		}
	}
}
