package core

import (
	"math/rand"
	"testing"

	"higgs/internal/exact"
	"higgs/internal/stream"
)

// TestRandomConfigsInvariants drives randomly drawn valid configurations
// through a bursty stream with duplicate timestamps and checks the
// structural invariants that must hold for every configuration: item
// accounting, one-sided error, exact range additivity, and clean Finalize.
func TestRandomConfigsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d1s := []uint32{2, 4, 8, 16, 32}
	thetas := []int{4, 16}
	for trial := 0; trial < 25; trial++ {
		cfg := Config{
			D1:             d1s[rng.Intn(len(d1s))],
			F1:             uint(rng.Intn(18) + 2),
			B:              rng.Intn(4) + 1,
			Theta:          thetas[rng.Intn(len(thetas))],
			Maps:           rng.Intn(4) + 1,
			OverflowBlocks: rng.Intn(2) == 0,
			OBBucket:       rng.Intn(2) + 1,
		}
		_ = rng.Intn(3) // was the seal-worker flag; still drawn so each trial keeps its config
		cfg.Seed = rng.Uint64()
		if uint32(cfg.Maps) > cfg.D1 {
			cfg.Maps = int(cfg.D1)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid config %+v: %v", trial, cfg, err)
		}
		s := MustNew(cfg)
		truth := exact.New()
		const n = 2500
		div := int64(1 + trial%5) // fixed per trial: monotone with duplicates
		var items int64
		for i := 0; i < n; i++ {
			e := stream.Edge{
				S: uint64(rng.Intn(40)),
				D: uint64(rng.Intn(40)),
				W: int64(rng.Intn(3) + 1),
				T: int64(i) / div,
			}
			s.Insert(e)
			truth.Insert(e)
			items++
		}
		if rng.Intn(2) == 0 {
			s.Finalize()
		}
		if got := s.Items(); got != items {
			t.Fatalf("trial %d (%+v): Items = %d, want %d", trial, cfg, got, items)
		}
		for q := 0; q < 60; q++ {
			ts := int64(rng.Intn(n))
			te := ts + int64(rng.Intn(n))
			sv, dv := uint64(rng.Intn(40)), uint64(rng.Intn(40))
			got, want := s.EdgeWeight(sv, dv, ts, te), truth.EdgeWeight(sv, dv, ts, te)
			if got < want {
				t.Fatalf("trial %d (%+v): edge undercount %d < %d", trial, cfg, got, want)
			}
			if o, w := s.VertexOut(sv, ts, te), truth.VertexOut(sv, ts, te); o < w {
				t.Fatalf("trial %d (%+v): out undercount %d < %d", trial, cfg, o, w)
			}
			mid := ts + (te-ts)/2
			if whole, parts := s.EdgeWeight(sv, dv, ts, te),
				s.EdgeWeight(sv, dv, ts, mid)+s.EdgeWeight(sv, dv, mid+1, te); whole != parts {
				t.Fatalf("trial %d (%+v): additivity broken: %d != %d", trial, cfg, whole, parts)
			}
		}
	}
}

// TestMonotoneTimestampsAfterDuplicateBursts: streams where thousands of
// items share one timestamp (flash events) must stay queryable and exact
// at the burst boundary.
func TestMonotoneTimestampsAfterDuplicateBursts(t *testing.T) {
	cfg := smallConfig()
	s := MustNew(cfg)
	truth := exact.New()
	// 3 bursts at t = 100, 200, 300, each 2000 items.
	for burst := 0; burst < 3; burst++ {
		tstamp := int64(100 * (burst + 1))
		for i := 0; i < 2000; i++ {
			e := stream.Edge{S: uint64(i % 30), D: uint64(i % 23), W: 1, T: tstamp}
			s.Insert(e)
			truth.Insert(e)
		}
	}
	s.Finalize()
	for _, win := range [][2]int64{{100, 100}, {100, 199}, {200, 300}, {150, 250}, {0, 1000}} {
		for v := uint64(0); v < 30; v++ {
			got, want := s.VertexOut(v, win[0], win[1]), truth.VertexOut(v, win[0], win[1])
			if got < want {
				t.Fatalf("window %v out(%d): %d < %d", win, v, got, want)
			}
		}
	}
	if s.Stats().OverflowBlocks == 0 {
		t.Fatal("bursts should have produced overflow blocks")
	}
}
