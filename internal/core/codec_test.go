package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"higgs/internal/matrix"
	"higgs/internal/stream"
	"higgs/internal/wire"
)

func roundTrip(t *testing.T, s *Summary) *Summary {
	t.Helper()
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSnapshotRoundTripQueries(t *testing.T) {
	st := denseStream(4000, 80, 40000, 21)
	orig := MustNew(smallConfig())
	for _, e := range st {
		orig.Insert(e)
	}
	loaded := roundTrip(t, orig)
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 400; i++ {
		ts := int64(rng.Intn(40000))
		te := ts + int64(rng.Intn(20000))
		sv, dv := uint64(rng.Intn(80)), uint64(rng.Intn(80))
		if a, b := orig.EdgeWeight(sv, dv, ts, te), loaded.EdgeWeight(sv, dv, ts, te); a != b {
			t.Fatalf("edge (%d,%d) [%d,%d]: orig %d vs loaded %d", sv, dv, ts, te, a, b)
		}
		if a, b := orig.VertexOut(sv, ts, te), loaded.VertexOut(sv, ts, te); a != b {
			t.Fatalf("out(%d): orig %d vs loaded %d", sv, a, b)
		}
		if a, b := orig.VertexIn(dv, ts, te), loaded.VertexIn(dv, ts, te); a != b {
			t.Fatalf("in(%d): orig %d vs loaded %d", dv, a, b)
		}
	}
	so, sl := orig.Stats(), loaded.Stats()
	if so.Items != sl.Items || so.Leaves != sl.Leaves || so.Layers != sl.Layers ||
		so.OverflowBlocks != sl.OverflowBlocks {
		t.Fatalf("stats diverge: %+v vs %+v", so, sl)
	}
}

func TestSnapshotResumesInsertion(t *testing.T) {
	st := denseStream(3000, 60, 30000, 23)
	orig := MustNew(smallConfig())
	for _, e := range st[:1500] {
		orig.Insert(e)
	}
	loaded := roundTrip(t, orig)
	// Continue the stream on both; results must stay identical.
	for _, e := range st[1500:] {
		orig.Insert(e)
		loaded.Insert(e)
	}
	if orig.Leaves() != loaded.Leaves() || orig.Layers() != loaded.Layers() {
		t.Fatalf("tree shapes diverge after resume: %d/%d vs %d/%d",
			orig.Leaves(), orig.Layers(), loaded.Leaves(), loaded.Layers())
	}
	for v := uint64(0); v < 60; v++ {
		if a, b := orig.VertexOut(v, 0, 30000), loaded.VertexOut(v, 0, 30000); a != b {
			t.Fatalf("out(%d) after resume: %d vs %d", v, a, b)
		}
	}
}

func TestSnapshotFinalized(t *testing.T) {
	orig := MustNew(DefaultConfig())
	for _, e := range paperStream() {
		orig.Insert(e)
	}
	orig.Finalize()
	loaded := roundTrip(t, orig)
	if got := loaded.EdgeWeight(2, 3, 5, 10); got != 3 {
		t.Fatalf("loaded finalized summary answered %d, want 3", got)
	}
	loaded.Insert(stream.Edge{S: 1, D: 2, W: 1, T: 99})
	if st := loaded.Stats(); st.Rejected != 1 {
		t.Fatalf("finalized flag lost: Rejected = %d", st.Rejected)
	}
}

func TestSnapshotEmpty(t *testing.T) {
	loaded := roundTrip(t, MustNew(DefaultConfig()))
	if loaded.Layers() != 0 || loaded.EdgeWeight(1, 2, 0, 10) != 0 {
		t.Fatal("empty snapshot did not round trip")
	}
	// And it accepts inserts afterwards.
	loaded.Insert(stream.Edge{S: 1, D: 2, W: 5, T: 3})
	if loaded.EdgeWeight(1, 2, 0, 10) != 5 {
		t.Fatal("loaded empty summary rejects inserts")
	}
}

func TestSnapshotDeleteAfterLoad(t *testing.T) {
	orig := MustNew(DefaultConfig())
	for _, e := range paperStream() {
		orig.Insert(e)
	}
	loaded := roundTrip(t, orig)
	if !loaded.Delete(stream.Edge{S: 2, D: 3, W: 1, T: 6}) {
		t.Fatal("delete after load failed")
	}
	if got := loaded.EdgeWeight(2, 3, 5, 10); got != 2 {
		t.Fatalf("after delete = %d, want 2", got)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a snapshot at all",
		"\x00\x00\x00\x00",
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("garbage %q accepted", c)
		}
	}
	// Truncated valid snapshot.
	orig := MustNew(DefaultConfig())
	for _, e := range paperStream() {
		orig.Insert(e)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, buf.Len() / 2, buf.Len() - 1} {
		if _, err := Read(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
	// A timed matrix where an aggregate belongs: a decoded aggregate is
	// frozen, and only untimed matrices freeze.
	orig = MustNew(smallConfig())
	for _, e := range denseStream(2000, 40, 20000, 25) {
		orig.Insert(e)
	}
	orig.Finalize()
	orig.sealNow(orig.root)
	leaf := orig.root
	for leaf.level > 1 {
		leaf = orig.ar.node(nodeID(orig.ar.children(leaf)[0]))
	}
	orig.root.mat = leaf.mat
	buf.Reset()
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "timed") {
		t.Fatalf("snapshot with a timed aggregate: err = %v", err)
	}
}

// TestSnapshotRefusesForeignGeometry: a leaf or an overflow block whose
// header is not the geometry the snapshot's config implies is refused
// before anything is sized by that header.
func TestSnapshotRefusesForeignGeometry(t *testing.T) {
	other := func(c matrix.Config) *matrix.Matrix {
		m, err := matrix.New(c, 5)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for name, swap := range map[string]func(s *Summary, leaf *node){
		"leaf": func(s *Summary, leaf *node) {
			c := s.leafCfg()
			c.D *= 2
			leaf.mat = other(c)
		},
		"overflow block": func(s *Summary, leaf *node) { leaf.obs = append(leaf.obs, other(s.leafCfg())) },
	} {
		s := MustNew(DefaultConfig())
		s.Insert(stream.Edge{S: 1, D: 2, W: 1, T: 5})
		swap(s, s.root)
		if _, err := Decode(s.AppendSnapshot(nil)); err == nil || !strings.Contains(err.Error(), "geometry") {
			t.Errorf("%s of a foreign geometry: err = %v", name, err)
		}
	}
}

// TestSnapshotIgnoresParallelByte pins the header's retired seal-worker
// flag: writers emit 0, and a snapshot carrying 1 there (written when the
// flag still selected per-level seal workers) loads, answers and re-encodes
// exactly like the one carrying 0.
func TestSnapshotIgnoresParallelByte(t *testing.T) {
	cfg := smallConfig()
	orig := MustNew(cfg)
	for _, e := range denseStream(2000, 40, 20000, 24) {
		orig.Insert(e)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	zero := buf.Bytes()

	// The flag follows OBBucket in the header.
	var hdr wire.Writer
	hdr.U64(snapshotMagic)
	hdr.U64(snapshotVersion)
	hdr.U32(cfg.D1)
	hdr.U64(uint64(cfg.F1))
	hdr.Int(cfg.B)
	hdr.Int(cfg.Theta)
	hdr.Int(cfg.Maps)
	hdr.Bool(cfg.OverflowBlocks)
	hdr.Int(cfg.OBBucket)
	at := len(hdr)
	if !bytes.HasPrefix(zero, hdr) || zero[at] != 0 {
		t.Fatalf("header layout moved: flag byte at %d is %d", at, zero[at])
	}
	one := append([]byte(nil), zero...)
	one[at] = 1

	a, err := Read(bytes.NewReader(zero))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Read(bytes.NewReader(one))
	if err != nil {
		t.Fatalf("snapshot with the flag set: %v", err)
	}
	for v := uint64(0); v < 40; v++ {
		if x, y := a.VertexOut(v, 0, 20000), b.VertexOut(v, 0, 20000); x != y {
			t.Fatalf("out(%d): %d with the flag clear, %d with it set", v, x, y)
		}
		if x, y := a.EdgeWeight(v, (v+1)%40, 5000, 15000), b.EdgeWeight(v, (v+1)%40, 5000, 15000); x != y {
			t.Fatalf("edge (%d,%d): %d with the flag clear, %d with it set", v, (v+1)%40, x, y)
		}
	}
	var re bytes.Buffer
	if _, err := b.WriteTo(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), zero) {
		t.Fatal("a snapshot loaded with the flag set re-encodes differently")
	}
}
