package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"higgs/internal/stream"
)

// TestPlacementGolden pins where every entry of a 20K-edge stream lands. The
// hashes are of the version-1 snapshot bytes (appendV1, every closed node's
// aggregate included) — open spine, then finalized — and were
// recorded at the commit whose matrix.find still walked all r×r candidate
// buckets before placing anything, so they hold the first-fit walk to that
// one's placements slot for slot: leaf inserts, overflow blocks, seal-time
// Absorb with its spills, and Delete's Sub through every sealed ancestor.
func TestPlacementGolden(t *testing.T) {
	st, err := stream.Skewed(2.0, 2000, 20_000, 22)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st {
		st[i].T /= 50_000 // ~10 edges per timestamp: overflow blocks open
	}
	noMMB := DefaultConfig()
	noMMB.Maps = 1
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", DefaultConfig(), "61fd0f8e706f9b575d19e955d43ceef3f314a47c2c21fd8e5aed69b9778a1ea7"},
		{"maps=1", noMMB, "f6b7a1891f1b28d316e67e24579cdd33598bc250578d469008fd723bebc22ae2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := MustNew(c.cfg)
			deleted := 0
			for i, e := range st {
				s.Insert(e)
				if i%97 == 96 && s.Delete(st[i-90]) {
					deleted++
				}
			}
			h := sha256.New()
			h.Write(appendV1(s))
			stats := s.Stats()
			s.Finalize()
			h.Write(appendV1(s))
			if stats.OverflowBlocks == 0 || stats.Leaves < 16 || deleted < 100 {
				t.Fatalf("stream too tame: %d overflow blocks, %d leaves, %d deletes", stats.OverflowBlocks, stats.Leaves, deleted)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Fatalf("snapshot SHA-256 = %s, want %s: a placement moved", got, c.want)
			}
		})
	}
}
