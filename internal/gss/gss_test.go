package gss

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

func defCfg() Config { return Config{D: 64, FBits: 12, Maps: 4} }

func TestValidation(t *testing.T) {
	bad := []Config{
		{D: 0, FBits: 12, Maps: 4},
		{D: 63, FBits: 12, Maps: 4},
		{D: 64, FBits: 0, Maps: 4},
		{D: 64, FBits: 40, Maps: 4},
		{D: 64, FBits: 12, Maps: 0},
		{D: 64, FBits: 12, Maps: 17},
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
	if got := s.edge(2, 1); got != 0 {
		t.Errorf("edge (2,1) = %d, want 0 (direction matters)", got)
	}
	if got := s.out(1); got != 9 {
		t.Errorf("out(1) = %d, want 9", got)
	}
	if got := s.in(2); got != 10 {
		t.Errorf("in(2) = %d, want 10", got)
	}
}

func TestBufferPath(t *testing.T) {
	// A 2×2 matrix with 1 candidate overflows immediately into the buffer.
	s := build(t, Config{D: 2, FBits: 16, Maps: 1}, 2)
	var want int64
	for i := uint64(0); i < 64; i++ {
		s.insert(stream.Edge{S: i, D: i + 100, W: 1})
		want++
	}
	if bufferLen(s.Sketch) == 0 {
		t.Fatal("expected buffered edges")
	}
	var got int64
	for i := uint64(0); i < 64; i++ {
		got += s.edge(i, i+100)
	}
	if got < want {
		t.Fatalf("total edge weight %d < inserted %d (buffer lost data)", got, want)
	}
	// Vertex queries must see buffered edges too.
	var outSum int64
	for i := uint64(0); i < 64; i++ {
		outSum += s.out(i)
	}
	if outSum < want {
		t.Fatalf("out-sum %d < inserted %d", outSum, want)
	}
}

func TestOneSidedVsExact(t *testing.T) {
	st, err := stream.Generate(stream.Config{Nodes: 300, Edges: 10000, Span: 10000, Skew: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.FromStream(st)
	s := build(t, Config{D: 128, FBits: 14, Maps: 4}, 4)
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

func TestFingerprintsBeatTCM(t *testing.T) {
	// On an overloaded small matrix, fingerprints keep edge queries far
	// more accurate than counter-only collisions would.
	s := build(t, Config{D: 16, FBits: 16, Maps: 4}, 6)
	for i := uint64(0); i < 500; i++ {
		s.insert(stream.Edge{S: i, D: i + 1000, W: 1})
	}
	var exactCount int
	for i := uint64(0); i < 500; i++ {
		if s.edge(i, i+1000) == 1 {
			exactCount++
		}
	}
	if exactCount < 450 {
		t.Fatalf("only %d/500 edges answered exactly; fingerprints ineffective", exactCount)
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
	if s.delete(stream.Edge{S: 50, D: 60, W: 1}) {
		t.Error("delete of absent edge succeeded")
	}
}

func TestDeleteBufferedEdge(t *testing.T) {
	s := build(t, Config{D: 2, FBits: 16, Maps: 1}, 7)
	var buffered *stream.Edge
	for i := uint64(0); i < 64 && buffered == nil; i++ {
		e := stream.Edge{S: i, D: i + 100, W: 2}
		s.insert(e)
		if bufferLen(s.Sketch) > 0 && buffered == nil {
			buffered = &e
		}
	}
	if buffered == nil {
		t.Skip("no buffered edge produced")
	}
	if !s.delete(*buffered) {
		t.Fatal("delete of buffered edge failed")
	}
	if got := s.edge(buffered.S, buffered.D); got != 0 {
		t.Errorf("buffered edge after delete = %d, want 0", got)
	}
}

func TestBoundedBufferCoarseFallback(t *testing.T) {
	s := build(t, Config{D: 2, FBits: 16, Maps: 1, MaxBuffer: 4}, 9)
	var want int64
	for i := uint64(0); i < 200; i++ {
		s.insert(stream.Edge{S: i, D: i + 500, W: 1})
		want++
	}
	if n := bufferLen(s.Sketch); n > 4 {
		t.Fatalf("buffer exceeded budget: %d", n)
	}
	if coarseLen(s.Sketch) == 0 {
		t.Fatal("coarse fallback unused despite exhausted buffer")
	}
	// One-sided: every edge still answers at least its true weight.
	var total int64
	for i := uint64(0); i < 200; i++ {
		got := s.edge(i, i+500)
		if got < 1 {
			t.Fatalf("edge %d lost under coarse fallback: %d", i, got)
		}
		total += got
	}
	if total < want {
		t.Fatalf("coarse fallback lost weight: %d < %d", total, want)
	}
	// Vertex queries must see coarse mass too (and may overcount).
	var outSum int64
	for i := uint64(0); i < 200; i++ {
		outSum += s.out(i)
	}
	if outSum < want {
		t.Fatalf("out-sum %d < inserted %d", outSum, want)
	}
	// Deleting a coarse-absorbed edge decrements the coarse slot.
	before := s.edge(199, 699)
	if !s.delete(stream.Edge{S: 199, D: 699, W: 1}) {
		t.Fatal("delete of coarse-absorbed edge failed")
	}
	if after := s.edge(199, 699); after != before-1 {
		t.Fatalf("coarse delete: %d -> %d", before, after)
	}
}

// TestOverloadedDigest pins every answer of a sketch driven past its
// buffer cap into the coarse fallback, with deletes interleaved: all edge,
// row and column answers over a fixed vertex set, each delete's result and
// SpaceBytes, hashed into one SHA-256 recorded when the test was written.
// A change to placement, matching, the scans or the overflow stores moves
// it.
func TestOverloadedDigest(t *testing.T) {
	s := build(t, Config{D: 8, FBits: 6, Maps: 2, MaxBuffer: 24}, 11)
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
	if n := bufferLen(s.Sketch); n != 24 {
		t.Errorf("buffer holds %d edges, want it full at 24", n)
	}
	if n := coarseLen(s.Sketch); n == 0 {
		t.Error("coarse fallback unused: the digest does not reach it")
	}
	sum := sha256.Sum256(buf)
	const want = "4ce7217c9bf301441ac7ef2c98feff875dba3d63de52da140719e605bdb56129"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

func bufferLen(s *Sketch) int { return len(s.buffer.edges) }
func coarseLen(s *Sketch) int { return len(s.coarse) }

func TestSpaceGrowsWithBuffer(t *testing.T) {
	s := build(t, Config{D: 2, FBits: 16, Maps: 1}, 8)
	empty := s.SpaceBytes()
	for i := uint64(0); i < 200; i++ {
		s.insert(stream.Edge{S: i, D: i + 300, W: 1})
	}
	if s.SpaceBytes() <= empty {
		t.Error("buffered edges not reflected in space accounting")
	}
}

// benchLayer returns a sketch at internal/bench's layer geometry for lkml
// at CI's scale 0.15 (D = 64, FBits = 11, buffer capped at d²/4), loaded
// with the 21,000 edges that scale's bottom Horae layer takes, and their
// pre-hashed endpoint keys: an overloaded layer, coarse slots in use.
func benchLayer(b *testing.B) (*Sketch, [][2]uint64) {
	b.Helper()
	s, err := New(Config{D: 64, FBits: 11, Maps: 4, MaxBuffer: 64 * 64 / 4})
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

// The four loops Horae's figures time per layer, re-adding and probing
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
