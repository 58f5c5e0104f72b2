package ingest

import (
	"testing"

	"higgs/internal/stream"
)

// TestSubmitGroupingAllocs pins the pooled-scratch contract of the
// grouping stage: Submit takes a batchGroups out of Pipeline.gpool, and the
// deferred putGroups is what lets the next Submit reuse its per-shard runs.
// Drop that Put and every submit rebuilds the scratch and regrows each run
// (28 allocs for this batch); with it, what is left is the deliver closure
// and the result it captures, escaping through the admitLog interface.
//
// The pin is the cheapest of many single submits, not an average: pools
// only ever add to a run — the collector empties them, and under -race
// sync.Pool drops a quarter of all Puts on purpose — while a missing Put is
// paid by every run.
func TestSubmitGroupingAllocs(t *testing.T) {
	s := newSharded(t, 4)
	p := newPipeline(t, s, Config{Mode: ModeSync})
	batch := make([]stream.Edge, 64)
	targeted := make(map[int]bool)
	for i := range batch {
		batch[i] = stream.Edge{S: uint64(i + 1), D: uint64(i + 2), W: 1, T: 10}
		targeted[s.ShardFor(batch[i].S)] = true
	}
	if len(targeted) != 4 {
		t.Fatalf("batch targets %d of 4 shards; the pin is for a multi-shard batch", len(targeted))
	}
	submit := func() {
		if applied, err := p.Submit(batch); err != nil || !applied {
			t.Fatalf("Submit = (%v, %v), want applied synchronously", applied, err)
		}
	}
	// Steady state: the first submit creates the leaf slots, every later one
	// merges into them and the core insert allocates nothing.
	least := testing.AllocsPerRun(1, submit)
	for i := 0; i < 100; i++ {
		least = min(least, testing.AllocsPerRun(1, submit))
	}
	if least != 2 {
		t.Fatalf("steady-state Submit of a 64-edge, 4-shard batch = %v allocs at best, want 2: is the grouping scratch still returned to its pool?", least)
	}
}
