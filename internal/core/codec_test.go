package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"higgs/internal/matrix"
	"higgs/internal/stream"
	"higgs/internal/wire"
)

// appendV1 is the version-1 snapshot encoder, kept as the oracle for the
// tests that compare aggregates through snapshot bytes: the whole tree in
// the version-1 layout, with every closed node's aggregate forced and
// written after its node's header. Version 2 (AppendSnapshot) is this
// layout without the header's retired seal-worker byte and without the
// interior nodes' has-aggregate flag and aggregate.
func appendV1(s *Summary) []byte {
	var w wire.Writer
	w.U64(snapshotMagic)
	w.U64(1)
	w.U32(s.cfg.D1)
	w.U64(uint64(s.cfg.F1))
	w.Int(s.cfg.B)
	w.Int(s.cfg.Theta)
	w.Int(s.cfg.Maps)
	w.Bool(s.cfg.OverflowBlocks)
	w.Int(s.cfg.OBBucket)
	w.Bool(false) // seal-worker flag, retired before version 2
	w.U64(s.cfg.Seed)
	w.I64(s.lastT)
	w.I64(s.items)
	w.I64(s.clamped)
	w.I64(s.rejected)
	w.Int(s.leaves)
	w.Int(s.obCount)
	w.Bool(s.finalized)
	w.Bool(s.root != nil)
	var encode func(n *node)
	encode = func(n *node) {
		w.Int(int(n.level))
		w.I64(n.firstT)
		w.I64(n.lastT)
		w.Bool(n.closed)
		if n.level == 1 {
			n.mat.Encode(&w)
			w.Int(len(n.obs))
			for _, ob := range n.obs {
				ob.Encode(&w)
			}
			return
		}
		if n.closed {
			s.sealNow(n)
		}
		w.Bool(n.mat != nil)
		if n.mat != nil {
			n.mat.Encode(&w)
		}
		kids := s.ar.children(n)
		w.Int(len(kids))
		for _, id := range kids {
			encode(s.ar.node(nodeID(id)))
		}
	}
	if s.root != nil {
		encode(s.root)
	}
	return w
}

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

// TestSnapshotIsAPureReader: encoding seals nothing, and a decoded
// summary's closed interior nodes are all pending until a read builds them.
func TestSnapshotIsAPureReader(t *testing.T) {
	s := MustNew(smallConfig())
	for _, e := range denseStream(3000, 60, 30000, 26) {
		s.Insert(e)
	}
	snap := s.AppendSnapshot(nil)
	if sealed, pending := sealCounts(s); sealed != 0 || pending == 0 {
		t.Fatalf("after AppendSnapshot: %d sealed, %d pending aggregates; want 0 and > 0", sealed, pending)
	}
	loaded, err := Decode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if sealed, pending := sealCounts(loaded); sealed != 0 || pending == 0 {
		t.Fatalf("decoded: %d sealed, %d pending aggregates; want 0 and > 0", sealed, pending)
	}
	loaded.Stats()
	if _, pending := sealCounts(loaded); pending != 0 {
		t.Fatalf("%d aggregates still pending after Stats", pending)
	}
	if got, want := appendV1(loaded), appendV1(s); !bytes.Equal(got, want) {
		t.Fatal("the decoded summary seals different aggregates than the one it was encoded from")
	}
}

// TestDecodeRefusesVersion1: a version-1 snapshot is refused at the header
// with an error naming the version, before anything it claims is sized.
// This 40-byte one — the default config, a level-8 root claiming an untimed
// 2048×2048×3 aggregate with no entries, and nothing after that matrix's
// header — made the version-1 decoder allocate 208 MiB before it failed on
// the truncation.
func TestDecodeRefusesVersion1(t *testing.T) {
	cfg := DefaultConfig()
	var in []byte
	for _, v := range []uint64{
		snapshotMagic, 1,
		uint64(cfg.D1), uint64(cfg.F1), uint64(cfg.B), uint64(cfg.Theta), uint64(cfg.Maps), 1, uint64(cfg.OBBucket), 0, 0, // config, retired flag, Seed 0
		0, 0, 0, 0, 1, 0, 0, 1, // lastT, items, clamped, rejected, leaves, obCount, finalized, hasRoot
		8, 0, 0, 1, // root: level, firstT, lastT, closed
		1, 0x4d58, 2048, uint64(cfg.B), uint64(cfg.Maps), 12, 0, 0, 0, 0, // has aggregate; matrix: tag, D, B, Maps, FBits, Timed, startT, added, count
	} {
		in = binary.AppendUvarint(in, v)
	}
	if len(in) != 40 {
		t.Fatalf("the crafted snapshot is %d bytes, want 40", len(in))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Decode(in)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing a 40-byte snapshot allocated %d bytes, want < 1 MiB (err: %v)", grew, err)
	}
	if err == nil || s != nil || !strings.Contains(err.Error(), "snapshot version: got 1, want 2") {
		t.Fatalf("Decode = %v, %v; want a refusal naming version 1", s, err)
	}
}

// TestDecodeRefusesOversizedLevel: a decoded aggregate is built by its
// first read, so a closed node whose level's aggregate geometry exceeds
// matrix.MaxSlots — which the version-1 decoder refused as a decoded
// aggregate — is refused at decode. The first read of a 103-byte snapshot
// of a closed single-child chain from a level-10 root down to one leaf
// allocates 427 MiB, each level up quadruples that, and a level-19 root
// asks for 2^44 bytes at once. An open node never seals, so an open root
// above the limit loads: with the default config a shard's root reaches
// level 11 after 4^9 leaves, and Expire never lowers it.
func TestDecodeRefusesOversizedLevel(t *testing.T) {
	for _, tc := range []struct {
		top        int32
		openTop    bool
		wantLoaded bool
	}{
		{10, false, true},
		{11, false, false},
		{19, false, false},
		{11, true, true},
	} {
		s := MustNew(DefaultConfig())
		s.Insert(stream.Edge{S: 1, D: 2, W: 1, T: 5})
		s.Finalize()
		for lv := int32(2); lv <= tc.top; lv++ {
			id, n := s.ar.alloc()
			n.level, n.firstT, n.lastT, n.closed = lv, 5, 5, !(tc.openTop && lv == tc.top)
			n.kidBase = s.ar.allocKids()
			s.ar.kidBlock(n.kidBase)[0] = int32(s.rootID)
			n.nKids = 1
			s.root, s.rootID = n, id
		}
		_, err := Decode(s.AppendSnapshot(nil))
		if fits := DefaultConfig().aggregateFits(tc.top); fits != (tc.top == 10) || (err == nil) != tc.wantLoaded {
			t.Fatalf("level-%d chain (open top %v): aggregateFits %v, Decode error %v; want loaded %v",
				tc.top, tc.openTop, fits, err, tc.wantLoaded)
		}
	}
}
