package auxo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"higgs/internal/exact"
	"higgs/internal/hashing"
	"higgs/internal/stream"
)

// sketch drives a Sketch by vertex id through a test-side hasher, the way
// Horae hashes vertices before keying its layers.
type sketch struct {
	*Sketch
	h hashing.Hasher
}

func build(t *testing.T, cfg Config, seed uint64) sketch {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sketch{s, hashing.NewHasher(seed)}
}

func (s sketch) insert(e stream.Edge)      { s.AddHashed(s.h.Hash(e.S), s.h.Hash(e.D), e.W) }
func (s sketch) delete(e stream.Edge) bool { return s.SubHashed(s.h.Hash(e.S), s.h.Hash(e.D), e.W) }
func (s sketch) edge(sv, dv uint64) int64  { return s.EdgeWeightHashed(s.h.Hash(sv), s.h.Hash(dv)) }
func (s sketch) out(v uint64) int64        { return s.VertexOutHashed(s.h.Hash(v)) }
func (s sketch) in(v uint64) int64         { return s.VertexInHashed(s.h.Hash(v)) }

// nodes counts the allocated PET nodes, and depth the levels they span.
func (s sketch) nodes() int { return walk(s.root, func(a, b int) int { return a + b }) }
func (s sketch) depth() int { return walk(s.root, func(a, b int) int { return max(a, b) }) }

// deepHolds reports whether the deep store holds any edge.
func (s sketch) deepHolds() bool { return s.deep.SpaceBits(s.cfg.FBits, s.cfg.D) > 0 }

func walk(n *pnode, join func(a, b int) int) int {
	if n == nil {
		return 0
	}
	return 1 + join(walk(n.children[0], join), walk(n.children[1], join))
}

func defCfg() Config { return Config{D: 32, FBits: 12, Maps: 4} }

func TestValidation(t *testing.T) {
	bad := []Config{
		{D: 0, FBits: 12, Maps: 4},
		{D: 33, FBits: 12, Maps: 4},
		{D: 32, FBits: 1, Maps: 4},
		{D: 32, FBits: 33, Maps: 4},
		{D: 32, FBits: 12, Maps: 0},
		{D: 32, FBits: 12, Maps: 17},
		{D: 2, FBits: 12, Maps: 4},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBasicQueries(t *testing.T) {
	s := build(t, defCfg(), 1)
	s.insert(stream.Edge{S: 1, D: 2, W: 3})
	s.insert(stream.Edge{S: 1, D: 2, W: 2})
	s.insert(stream.Edge{S: 1, D: 7, W: 4})
	s.insert(stream.Edge{S: 9, D: 2, W: 5})
	if got := s.edge(1, 2); got != 5 {
		t.Errorf("edge (1,2) = %d, want 5", got)
	}
	if got := s.out(1); got != 9 {
		t.Errorf("out(1) = %d, want 9", got)
	}
	if got := s.in(2); got != 10 {
		t.Errorf("in(2) = %d, want 10", got)
	}
	if n := s.nodes(); n != 1 {
		t.Errorf("nodes = %d, want 1 (no overflow yet)", n)
	}
}

func TestTreeGrowsUnderLoad(t *testing.T) {
	s := build(t, Config{D: 4, FBits: 12, Maps: 2}, 2)
	for i := uint64(0); i < 2000; i++ {
		s.insert(stream.Edge{S: i, D: i + 10000, W: 1})
	}
	if n := s.nodes(); n < 4 {
		t.Fatalf("PET did not grow: %d nodes", n)
	}
	// Every edge remains queryable with at least its true weight.
	for i := uint64(0); i < 2000; i++ {
		if got := s.edge(i, i+10000); got < 1 {
			t.Fatalf("edge %d lost: %d", i, got)
		}
	}
}

func TestOneSidedVsExact(t *testing.T) {
	st, err := stream.Generate(stream.Config{Nodes: 300, Edges: 15000, Span: 10000, Skew: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.FromStream(st)
	s := build(t, Config{D: 32, FBits: 14, Maps: 4}, 4)
	for _, e := range st {
		s.insert(e)
	}
	first, last := truth.Span()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		sv, dv := uint64(rng.Intn(300)), uint64(rng.Intn(300))
		if got, want := s.edge(sv, dv), truth.EdgeWeight(sv, dv, first, last); got < want {
			t.Fatalf("edge (%d,%d) = %d < truth %d", sv, dv, got, want)
		}
		if got, want := s.out(sv), truth.VertexOut(sv, first, last); got < want {
			t.Fatalf("out(%d) = %d < truth %d", sv, got, want)
		}
		if got, want := s.in(dv), truth.VertexIn(dv, first, last); got < want {
			t.Fatalf("in(%d) = %d < truth %d", dv, got, want)
		}
	}
}

func TestDeepStoreFallback(t *testing.T) {
	// FBits=2 exhausts prefixes after 4 levels; heavy load must overflow
	// into the exact deep store without losing weight.
	s := build(t, Config{D: 2, FBits: 2, Maps: 1}, 6)
	var want int64
	for i := uint64(0); i < 500; i++ {
		s.insert(stream.Edge{S: i, D: i + 600, W: 1})
		want++
	}
	if !s.deepHolds() {
		t.Fatal("deep store unused under extreme load")
	}
	var got int64
	for i := uint64(0); i < 500; i++ {
		got += s.edge(i, i+600)
	}
	if got < want {
		t.Fatalf("total %d < inserted %d", got, want)
	}
	var outSum int64
	for i := uint64(0); i < 500; i++ {
		outSum += s.out(i)
	}
	if outSum < want {
		t.Fatalf("out total %d < inserted %d", outSum, want)
	}
}

func TestDelete(t *testing.T) {
	s := build(t, defCfg(), 1)
	e := stream.Edge{S: 5, D: 6, W: 4}
	s.insert(e)
	if !s.delete(e) {
		t.Fatal("delete failed")
	}
	if got := s.edge(5, 6); got != 0 {
		t.Errorf("after delete = %d, want 0", got)
	}
	if s.delete(stream.Edge{S: 500, D: 600, W: 1}) {
		t.Error("delete of absent edge succeeded")
	}
}

func TestDeleteInDeepTree(t *testing.T) {
	s := build(t, Config{D: 4, FBits: 12, Maps: 2}, 7)
	var edges []stream.Edge
	for i := uint64(0); i < 1000; i++ {
		e := stream.Edge{S: i, D: i + 5000, W: 1}
		s.insert(e)
		edges = append(edges, e)
	}
	for _, e := range edges[:200] {
		if !s.delete(e) {
			t.Fatalf("delete %+v failed", e)
		}
		if got := s.edge(e.S, e.D); got < 0 {
			t.Fatalf("negative weight after delete: %d", got)
		}
	}
}

// TestOverloadedDigest pins every answer of a sketch grown several PET
// levels deep and into the deep store, with deletes interleaved: all edge,
// row and column answers over a fixed vertex set, each delete's result and
// SpaceBytes, hashed into one SHA-256 recorded when the test was written.
// A change to placement, matching, the descent, the scans or the deep
// store moves it.
func TestOverloadedDigest(t *testing.T) {
	s := build(t, Config{D: 4, FBits: 3, Maps: 2}, 11)
	rng := rand.New(rand.NewSource(12))
	const nv = 96
	var buf []byte
	put := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	putBool := func(ok bool) {
		if ok {
			put(1)
		} else {
			put(0)
		}
	}
	var live []stream.Edge
	for i := 0; i < 3000; i++ {
		e := stream.Edge{S: uint64(rng.Intn(nv)), D: uint64(rng.Intn(nv)), W: int64(1 + rng.Intn(5))}
		s.insert(e)
		live = append(live, e)
		if i%4 == 3 {
			k := rng.Intn(len(live))
			e := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			putBool(s.delete(e))
		}
		if i%16 == 15 {
			putBool(s.delete(stream.Edge{S: uint64(nv + i), D: uint64(nv + i + 1), W: 1}))
		}
	}
	for u := uint64(0); u < nv; u++ {
		for v := uint64(0); v < nv; v++ {
			put(s.edge(u, v))
		}
		put(s.out(u))
		put(s.in(u))
	}
	put(s.SpaceBytes())
	if n := s.depth(); n < 3 {
		t.Errorf("PET is %d levels deep, want ≥ 3", n)
	}
	if !s.deepHolds() {
		t.Error("deep store unused: the digest does not reach it")
	}
	sum := sha256.Sum256(buf)
	const want = "d95155aac8664141418328b07fa31f3459df22e01b291c4004843a2432790a9f"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

func TestSpaceGrowsWithTree(t *testing.T) {
	s := build(t, Config{D: 4, FBits: 12, Maps: 2}, 8)
	before := s.SpaceBytes()
	for i := uint64(0); i < 2000; i++ {
		s.insert(stream.Edge{S: i, D: i + 9000, W: 1})
	}
	if s.SpaceBytes() <= before {
		t.Error("space accounting did not grow with tree")
	}
}

// benchLayer returns a sketch at internal/bench's AuxoTime layer geometry
// for lkml at CI's scale 0.15 (D = 64, FBits = 11), loaded with the 21,000
// edges that scale's bottom layer takes, and their pre-hashed endpoint
// keys: an overloaded layer whose PET has grown below the root.
func benchLayer(b *testing.B) (*Sketch, [][2]uint64) {
	b.Helper()
	s, err := New(Config{D: 64, FBits: 11, Maps: 4})
	if err != nil {
		b.Fatal(err)
	}
	h := hashing.NewHasher(1)
	rng := rand.New(rand.NewSource(2))
	keys := make([][2]uint64, 21000)
	for i := range keys {
		keys[i] = [2]uint64{h.Hash(uint64(rng.Intn(4000))), h.Hash(uint64(rng.Intn(4000)))}
		s.AddHashed(keys[i][0], keys[i][1], 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	return s, keys
}

// The four loops AuxoTime's figures time per layer, re-adding and probing
// the loaded keys in turn. Answers go to sink so no call is optimized away.

var sink int64

func BenchmarkAddHashed(b *testing.B) {
	s, keys := benchLayer(b)
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		s.AddHashed(k[0], k[1], 1)
	}
}

func BenchmarkEdgeWeightHashed(b *testing.B) {
	s, keys := benchLayer(b)
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		sink += s.EdgeWeightHashed(k[0], k[1])
	}
}

func BenchmarkVertexOutHashed(b *testing.B) {
	s, keys := benchLayer(b)
	for i := 0; i < b.N; i++ {
		sink += s.VertexOutHashed(keys[i%len(keys)][0])
	}
}

func BenchmarkVertexInHashed(b *testing.B) {
	s, keys := benchLayer(b)
	for i := 0; i < b.N; i++ {
		sink += s.VertexInHashed(keys[i%len(keys)][1])
	}
}
