package main

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

func build(t *testing.T) labeled {
	t.Helper()
	s, err := newLabeled(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLabeledVsUnlabeled(t *testing.T) {
	s := build(t)
	s.insert(edge{S: 1, D: 2, Label: follows, W: 3, T: 10})
	s.insert(edge{S: 1, D: 2, Label: pays, W: 5, T: 20})
	s.insert(edge{S: 1, D: 2, Label: follows, W: 1, T: 30})

	if got := s.all.EdgeWeight(1, 2, 0, 100); got != 9 {
		t.Errorf("all-relations edge = %d, want 9", got)
	}
	if got := s.edgeWeight(1, 2, follows, 0, 100); got != 4 {
		t.Errorf("follows edge = %d, want 4", got)
	}
	if got := s.edgeWeight(1, 2, pays, 0, 100); got != 5 {
		t.Errorf("pays edge = %d, want 5", got)
	}
	if got := s.edgeWeight(1, 2, replies, 0, 100); got != 0 {
		t.Errorf("replies edge = %d, want 0", got)
	}
	// Temporal filtering composes with labels.
	if got := s.edgeWeight(1, 2, follows, 15, 100); got != 1 {
		t.Errorf("follows in [15,100] = %d, want 1", got)
	}
}

func TestLabeledVertexQueries(t *testing.T) {
	s := build(t)
	s.insert(edge{S: 1, D: 2, Label: follows, W: 3, T: 10})
	s.insert(edge{S: 1, D: 3, Label: pays, W: 5, T: 20})
	s.insert(edge{S: 4, D: 2, Label: pays, W: 7, T: 30})
	if got := s.all.VertexOut(1, 0, 100); got != 8 {
		t.Errorf("out(1) = %d, want 8", got)
	}
	if got := s.mixed.VertexOut(mix(1, pays), 0, 100); got != 5 {
		t.Errorf("out(1, pays) = %d, want 5", got)
	}
	if got := s.vertexIn(2, pays, 0, 100); got != 7 {
		t.Errorf("in(2, pays) = %d, want 7", got)
	}
	if got := s.vertexIn(2, follows, 0, 100); got != 3 {
		t.Errorf("in(2, follows) = %d, want 3", got)
	}
}

func TestLabeledPath(t *testing.T) {
	s := build(t)
	s.insert(edge{S: 1, D: 2, Label: pays, W: 2, T: 1})
	s.insert(edge{S: 2, D: 3, Label: pays, W: 4, T: 2})
	s.insert(edge{S: 2, D: 3, Label: follows, W: 100, T: 3})
	if got := s.pathWeight([]uint64{1, 2, 3}, pays, 0, 10); got != 6 {
		t.Errorf("pays path = %d, want 6", got)
	}
}

// TestOneSidedPerLabel: label-restricted estimates never undercount.
func TestOneSidedPerLabel(t *testing.T) {
	s := build(t)
	rng := rand.New(rand.NewSource(1))
	truth := map[[3]uint64]int64{} // (s, d, label) → weight
	for i := 0; i < 20000; i++ {
		e := edge{
			S:     uint64(rng.Intn(200)),
			D:     uint64(rng.Intn(200)),
			Label: uint32(rng.Intn(3) + 1),
			W:     1,
			T:     int64(i),
		}
		s.insert(e)
		truth[[3]uint64{e.S, e.D, uint64(e.Label)}]++
	}
	s.all.Finalize()
	s.mixed.Finalize()
	for k, want := range truth {
		got := s.edgeWeight(k[0], k[1], uint32(k[2]), 0, 20000)
		if got < want {
			t.Fatalf("labeled edge %v: %d < truth %d", k, got, want)
		}
	}
}
