package shard

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"higgs/internal/core"
	"higgs/internal/stream"
	"higgs/internal/wire"
)

// testStream synthesizes a deterministic stream for shard tests.
func testStream(t *testing.T, nodes, edges int) stream.Stream {
	t.Helper()
	st, err := stream.Generate(stream.Config{
		Nodes: nodes, Edges: edges, Span: 50_000, Skew: 2.0, Variance: 900,
		Slices: 200, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newSharded(t *testing.T, shards int) *Summary {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = shards
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{Shards: 0, Core: core.DefaultConfig()},
		{Shards: -1, Core: core.DefaultConfig()},
		{Shards: MaxShards + 1, Core: core.DefaultConfig()},
		{Shards: 2}, // zero core config is invalid
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%+v) accepted invalid config", bad)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

// TestPartitionEquivalence is the sharding correctness anchor: every shard
// of a sharded summary must answer exactly like an unsharded core summary
// fed the same partition of the stream, and single-shard queries on the
// sharded summary must route to the right partition.
func TestPartitionEquivalence(t *testing.T) {
	const shards = 8
	st := testStream(t, 200, 20_000)
	s := newSharded(t, shards)

	refs := make([]*core.Summary, shards)
	for i := range refs {
		refs[i] = core.MustNew(s.Config().Core)
	}
	for _, e := range st {
		s.Insert(e)
		refs[s.ShardFor(e.S)].Insert(e)
	}
	s.Finalize()
	for _, r := range refs {
		r.Finalize()
	}

	span := st[len(st)-1].T
	for v := uint64(0); v < 200; v++ {
		i := s.ShardFor(v)
		// {1, 1} keeps single-instant coverage; the zero-value window
		// {0, 0} is rejected by query.Validate since DESIGN.md §17.
		for _, win := range [][2]int64{{0, span}, {span / 4, span / 2}, {1, 1}} {
			if got, want := s.EdgeWeight(v, v+1, win[0], win[1]), refs[i].EdgeWeight(v, v+1, win[0], win[1]); got != want {
				t.Fatalf("EdgeWeight(%d,%d,%v) = %d, shard ref = %d", v, v+1, win, got, want)
			}
			if got, want := s.VertexOut(v, win[0], win[1]), refs[i].VertexOut(v, win[0], win[1]); got != want {
				t.Fatalf("VertexOut(%d,%v) = %d, shard ref = %d", v, win, got, want)
			}
			var wantIn int64
			for _, r := range refs {
				wantIn += r.VertexIn(v, win[0], win[1])
			}
			if got := s.VertexIn(v, win[0], win[1]); got != wantIn {
				t.Fatalf("VertexIn(%d,%v) = %d, sum of shard refs = %d", v, win, got, wantIn)
			}
		}
	}
}

// TestOneSided: sharded estimates never undercount the exact truth.
func TestOneSided(t *testing.T) {
	st := testStream(t, 100, 10_000)
	s := newSharded(t, 4)
	truth := make(map[[2]uint64]int64)
	for _, e := range st {
		s.Insert(e)
		truth[[2]uint64{e.S, e.D}] += e.W
	}
	s.Finalize()
	span := st[len(st)-1].T
	for k, want := range truth {
		if got := s.EdgeWeight(k[0], k[1], 0, span); got < want {
			t.Fatalf("EdgeWeight(%d,%d) = %d undercounts %d", k[0], k[1], got, want)
		}
	}
}

func TestPathAndSubgraphDecomposition(t *testing.T) {
	st := testStream(t, 150, 15_000)
	s := newSharded(t, 8)
	for _, e := range st {
		s.Insert(e)
	}
	s.Finalize()
	span := st[len(st)-1].T

	path := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	var want int64
	for i := 0; i+1 < len(path); i++ {
		want += s.EdgeWeight(path[i], path[i+1], 0, span)
	}
	if got := s.PathWeight(path, 0, span); got != want {
		t.Fatalf("PathWeight = %d, sum of EdgeWeights = %d", got, want)
	}
	if got := s.PathWeight([]uint64{42}, 0, span); got != 0 {
		t.Fatalf("single-vertex path = %d, want 0", got)
	}

	edges := [][2]uint64{{1, 2}, {2, 3}, {3, 4}, {100, 101}, {7, 7}}
	want = 0
	for _, e := range edges {
		want += s.EdgeWeight(e[0], e[1], 0, span)
	}
	if got := s.SubgraphWeight(edges, 0, span); got != want {
		t.Fatalf("SubgraphWeight = %d, sum of EdgeWeights = %d", got, want)
	}
	if got := s.SubgraphWeight(nil, 0, span); got != 0 {
		t.Fatalf("empty subgraph = %d, want 0", got)
	}
}

func TestDeleteRoutesToShard(t *testing.T) {
	s := newSharded(t, 4)
	e := stream.Edge{S: 11, D: 22, W: 5, T: 100}
	s.Insert(e)
	if got := s.EdgeWeight(11, 22, 0, 200); got != 5 {
		t.Fatalf("EdgeWeight = %d, want 5", got)
	}
	if !s.Delete(e) {
		t.Fatal("Delete reported not found")
	}
	if got := s.EdgeWeight(11, 22, 0, 200); got != 0 {
		t.Fatalf("EdgeWeight after delete = %d, want 0", got)
	}
	if s.Delete(stream.Edge{S: 99, D: 98, W: 1, T: 100}) {
		t.Fatal("phantom delete reported found")
	}
}

func TestInsertBatchMatchesInsert(t *testing.T) {
	st := testStream(t, 80, 8_000)
	a, b := newSharded(t, 4), newSharded(t, 4)
	for _, e := range st {
		a.Insert(e)
	}
	b.InsertBatch(st)
	a.Finalize()
	b.Finalize()
	span := st[len(st)-1].T
	for v := uint64(0); v < 80; v++ {
		if ga, gb := a.VertexOut(v, 0, span), b.VertexOut(v, 0, span); ga != gb {
			t.Fatalf("VertexOut(%d): Insert %d vs InsertBatch %d", v, ga, gb)
		}
	}
	if a.Items() != b.Items() {
		t.Fatalf("Items: %d vs %d", a.Items(), b.Items())
	}
}

func TestStatsAggregation(t *testing.T) {
	st := testStream(t, 100, 10_000)
	s := newSharded(t, 4)
	for _, e := range st {
		s.Insert(e)
	}
	s.Finalize()
	stats := s.Stats()
	if stats.Shards != 4 || len(stats.PerShard) != 4 {
		t.Fatalf("Shards = %d, PerShard = %d", stats.Shards, len(stats.PerShard))
	}
	var items int64
	maxLayers := 0
	for _, ps := range stats.PerShard {
		items += ps.Items
		if ps.Layers > maxLayers {
			maxLayers = ps.Layers
		}
	}
	if stats.Total.Items != items || stats.Total.Items != int64(len(st)) {
		t.Fatalf("Total.Items = %d, per-shard sum = %d, stream = %d", stats.Total.Items, items, len(st))
	}
	if stats.Total.Layers != maxLayers {
		t.Fatalf("Total.Layers = %d, max per-shard = %d", stats.Total.Layers, maxLayers)
	}
	if stats.Total.SpaceBytes <= 0 {
		t.Fatal("space accounting missing")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := testStream(t, 120, 12_000)
	s := newSharded(t, 4)
	for _, e := range st[:10_000] {
		s.Insert(e)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumShards() != 4 {
		t.Fatalf("loaded shards = %d, want 4", loaded.NumShards())
	}
	// The loaded summary keeps accepting inserts where the original left
	// off, and partitions identically.
	for _, e := range st[10_000:] {
		s.Insert(e)
		loaded.Insert(e)
	}
	s.Finalize()
	loaded.Finalize()
	span := st[len(st)-1].T
	for v := uint64(0); v < 120; v++ {
		if got, want := loaded.VertexOut(v, 0, span), s.VertexOut(v, 0, span); got != want {
			t.Fatalf("VertexOut(%d) after reload = %d, want %d", v, got, want)
		}
		if got, want := loaded.VertexIn(v, 0, span), s.VertexIn(v, 0, span); got != want {
			t.Fatalf("VertexIn(%d) after reload = %d, want %d", v, got, want)
		}
	}
	if loaded.Items() != s.Items() {
		t.Fatalf("Items after reload = %d, want %d", loaded.Items(), s.Items())
	}
}

// BenchmarkRead decodes a finalized 4-shard lkml snapshot (the fixture
// stream), what -load, a snapshot upload and a follower boot pay:
//
//	go test -run '^$' -bench Read -benchmem ./internal/shard
func BenchmarkRead(b *testing.B) {
	s, _ := fixtureSet(b)
	s.Finalize()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Read(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadLegacyCoreSnapshot: a bare core snapshot is not a sharded one;
// Read refuses it on its magic and returns no summary.
func TestReadLegacyCoreSnapshot(t *testing.T) {
	cs := core.MustNew(core.DefaultConfig())
	cs.Insert(stream.Edge{S: 1, D: 2, W: 3, T: 100})
	cs.Insert(stream.Edge{S: 1, D: 2, W: 4, T: 200})
	s, err := Read(bytes.NewReader(cs.AppendSnapshot(nil)))
	if err == nil || !strings.Contains(err.Error(), "bad sharded snapshot magic") || s != nil {
		t.Fatalf("Read(core snapshot) = %v, %v; want a magic refusal", s, err)
	}
}

// TestReadRefusesOversizedGeometry: a 49-byte sharded snapshot whose core
// header and only leaf claim D1 = 1024, B = 16 — a slab of 2^24 slots,
// about 337 MiB — is refused before anything is sized by that geometry.
func TestReadRefusesOversizedGeometry(t *testing.T) {
	varints := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	blob := varints(
		0x48494747, 1, // core magic, version
		1024, 19, 16, 4, 4, 1, 1, 0, 0, // D1, F1, B, Theta, Maps, OverflowBlocks, OBBucket, retired flag, Seed
		0, 0, 0, 0, 1, 0, 0, 1, // lastT, items, clamped, rejected, leaves, obCount, finalized, hasRoot
		1, 0, 0, 0, // leaf: level, firstT, lastT, closed
		0x4d58, 1024, 16, 4, 19, 1, 0, 0, 0, // matrix: tag, D, B, Maps, FBits, Timed, startT, added, count
	)
	in := append(varints(snapshotMagic, snapshotVersion, 1, 0, uint64(len(blob))), blob...)
	if len(in) != 49 {
		t.Fatalf("the crafted snapshot is %d bytes, want 49", len(in))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Read(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil || s != nil {
		t.Fatalf("Read = %v, %v; want a refusal", s, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing a 49-byte snapshot allocated %d bytes, want < 1 MiB (err: %v)", grew, err)
	}
}

// TestReadRefusesMixedConfigs: every shard of a snapshot must carry shard
// 0's core config.
func TestReadRefusesMixedConfigs(t *testing.T) {
	var frame wire.Writer
	frame.U64(snapshotMagic)
	frame.U64(snapshotVersion)
	frame.Int(2)
	for seed := uint64(1); seed <= 2; seed++ {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		frame.U64(0)
		frame.Bytes(core.MustNew(cfg).AppendSnapshot(nil))
	}
	if s, err := Read(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "config differs") || s != nil {
		t.Fatalf("Read(mixed configs) = %v, %v; want a refusal", s, err)
	}
}

func TestReadRejectsCorruptInput(t *testing.T) {
	for _, blob := range [][]byte{
		nil,
		[]byte("garbage that is neither format"),
		{0xd3, 0x8e, 0xa5, 0x84, 0x04}, // sharded magic, then truncation
	} {
		if _, err := Read(bytes.NewReader(blob)); err == nil {
			t.Errorf("Read(%q) accepted corrupt input", blob)
		}
	}
}

// TestReadRejectsV1Frame hand-writes a well-formed version-1 sharded
// snapshot (the development-only frame without per-shard watermarks: magic,
// version, shard count, then one length-prefixed core snapshot per shard)
// and requires a clean refusal: an error naming the version, no summary.
func TestReadRejectsV1Frame(t *testing.T) {
	cs := core.MustNew(core.DefaultConfig())
	cs.Insert(stream.Edge{S: 5, D: 6, W: 9, T: 50})
	var frame wire.Writer
	frame.U64(snapshotMagic)
	frame.U64(1)
	frame.Int(1)
	frame.Bytes(cs.AppendSnapshot(nil))
	s, err := Read(bytes.NewReader(frame))
	if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 1") {
		t.Fatalf("Read(v1 frame) error = %v, want an unsupported-version refusal", err)
	}
	if s != nil {
		t.Fatal("Read(v1 frame) returned a summary alongside its error")
	}
}

func TestInsertShardAtWatermark(t *testing.T) {
	s := newSharded(t, 4)
	for i := 0; i < s.NumShards(); i++ {
		if got := s.ShardSeq(i); got != 0 {
			t.Fatalf("fresh shard %d watermark = %d, want 0", i, got)
		}
	}
	e := stream.Edge{S: 1, D: 2, W: 1, T: 10}
	i := s.ShardFor(e.S)
	s.InsertShardAt(i, []stream.Edge{e}, 7)
	if got := s.ShardSeq(i); got != 7 {
		t.Fatalf("watermark after seq-7 apply = %d, want 7", got)
	}
	// Watermarks only advance: a lower (or zero) seq leaves them alone.
	s.InsertShardAt(i, []stream.Edge{{S: e.S, D: 3, W: 1, T: 11}}, 5)
	s.InsertShardAt(i, []stream.Edge{{S: e.S, D: 4, W: 1, T: 12}}, 0)
	if got := s.ShardSeq(i); got != 7 {
		t.Fatalf("watermark after lower/zero seq = %d, want 7", got)
	}
	s.InsertShardAt(i, []stream.Edge{{S: e.S, D: 5, W: 1, T: 13}}, 9)
	if got := s.ShardSeq(i); got != 9 {
		t.Fatalf("watermark after seq-9 apply = %d, want 9", got)
	}
	// Other shards are untouched.
	for j := 0; j < s.NumShards(); j++ {
		if j != i && s.ShardSeq(j) != 0 {
			t.Fatalf("shard %d watermark = %d, want 0", j, s.ShardSeq(j))
		}
	}
}

func TestSnapshotPreservesWatermarks(t *testing.T) {
	s := newSharded(t, 3)
	st := testStream(t, 50, 400)
	for k, e := range st {
		i := s.ShardFor(e.S)
		s.InsertShardAt(i, []stream.Edge{e}, uint64(k+1))
	}
	want := make([]uint64, s.NumShards())
	for i := range want {
		want[i] = s.ShardSeq(i)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumShards() != s.NumShards() {
		t.Fatalf("loaded %d shards, want %d", loaded.NumShards(), s.NumShards())
	}
	for i := range want {
		if got := loaded.ShardSeq(i); got != want[i] {
			t.Fatalf("loaded shard %d watermark = %d, want %d", i, got, want[i])
		}
	}
	if got, want := loaded.Items(), s.Items(); got != want {
		t.Fatalf("loaded items = %d, want %d", got, want)
	}
}
