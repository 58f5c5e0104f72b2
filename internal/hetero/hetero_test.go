package hetero

import (
	"math/rand"
	"testing"

	"higgs/internal/core"
)

const (
	follows = uint32(1)
	pays    = uint32(2)
	replies = uint32(3)
)

func build(t *testing.T) *Summary {
	t.Helper()
	s, err := New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLabeledVsUnlabeled(t *testing.T) {
	s := build(t)
	s.Insert(Edge{S: 1, D: 2, Label: follows, W: 3, T: 10})
	s.Insert(Edge{S: 1, D: 2, Label: pays, W: 5, T: 20})
	s.Insert(Edge{S: 1, D: 2, Label: follows, W: 1, T: 30})

	if got := s.EdgeWeight(1, 2, 0, 100); got != 9 {
		t.Errorf("all-relations edge = %d, want 9", got)
	}
	if got := s.EdgeWeightLabeled(1, 2, follows, 0, 100); got != 4 {
		t.Errorf("follows edge = %d, want 4", got)
	}
	if got := s.EdgeWeightLabeled(1, 2, pays, 0, 100); got != 5 {
		t.Errorf("pays edge = %d, want 5", got)
	}
	if got := s.EdgeWeightLabeled(1, 2, replies, 0, 100); got != 0 {
		t.Errorf("replies edge = %d, want 0", got)
	}
	// Temporal filtering composes with labels.
	if got := s.EdgeWeightLabeled(1, 2, follows, 15, 100); got != 1 {
		t.Errorf("follows in [15,100] = %d, want 1", got)
	}
}

func TestLabeledVertexQueries(t *testing.T) {
	s := build(t)
	s.Insert(Edge{S: 1, D: 2, Label: follows, W: 3, T: 10})
	s.Insert(Edge{S: 1, D: 3, Label: pays, W: 5, T: 20})
	s.Insert(Edge{S: 4, D: 2, Label: pays, W: 7, T: 30})
	if got := s.VertexOut(1, 0, 100); got != 8 {
		t.Errorf("out(1) = %d, want 8", got)
	}
	if got := s.VertexOutLabeled(1, pays, 0, 100); got != 5 {
		t.Errorf("out(1, pays) = %d, want 5", got)
	}
	if got := s.VertexInLabeled(2, pays, 0, 100); got != 7 {
		t.Errorf("in(2, pays) = %d, want 7", got)
	}
	if got := s.VertexInLabeled(2, follows, 0, 100); got != 3 {
		t.Errorf("in(2, follows) = %d, want 3", got)
	}
}

func TestLabeledPath(t *testing.T) {
	s := build(t)
	s.Insert(Edge{S: 1, D: 2, Label: pays, W: 2, T: 1})
	s.Insert(Edge{S: 2, D: 3, Label: pays, W: 4, T: 2})
	s.Insert(Edge{S: 2, D: 3, Label: follows, W: 100, T: 3})
	if got := s.PathWeightLabeled([]uint64{1, 2, 3}, pays, 0, 10); got != 6 {
		t.Errorf("pays path = %d, want 6", got)
	}
}

func TestDelete(t *testing.T) {
	s := build(t)
	e := Edge{S: 1, D: 2, Label: follows, W: 3, T: 10}
	s.Insert(e)
	if !s.Delete(e) {
		t.Fatal("delete failed")
	}
	if got := s.EdgeWeightLabeled(1, 2, follows, 0, 100); got != 0 {
		t.Errorf("labeled after delete = %d", got)
	}
	if got := s.EdgeWeight(1, 2, 0, 100); got != 0 {
		t.Errorf("unlabeled after delete = %d", got)
	}
}

// TestOneSidedPerLabel: label-restricted estimates never undercount, and
// the label views sum to at least the unlabeled truth.
func TestOneSidedPerLabel(t *testing.T) {
	s := build(t)
	rng := rand.New(rand.NewSource(1))
	truth := map[[3]uint64]int64{} // (s, d, label) → weight
	for i := 0; i < 20000; i++ {
		e := Edge{
			S:     uint64(rng.Intn(200)),
			D:     uint64(rng.Intn(200)),
			Label: uint32(rng.Intn(3) + 1),
			W:     1,
			T:     int64(i),
		}
		s.Insert(e)
		truth[[3]uint64{e.S, e.D, uint64(e.Label)}]++
	}
	s.Finalize()
	for k, want := range truth {
		got := s.EdgeWeightLabeled(k[0], k[1], uint32(k[2]), 0, 20000)
		if got < want {
			t.Fatalf("labeled edge %v: %d < truth %d", k, got, want)
		}
	}
}

func TestLifecycle(t *testing.T) {
	s, err := New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Insert(Edge{S: 1, D: 2, Label: 1, W: 1, T: 1})
	s.Finalize()
	if s.SpaceBytes() <= 0 {
		t.Error("space not accounted")
	}
	if s.Stats().Items != 1 {
		t.Error("stats wrong")
	}
}

func TestBadConfig(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Theta = 5
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}
