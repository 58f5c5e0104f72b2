package ingest

import (
	"testing"

	"higgs/internal/stream"
)

// TestSubmitGroupingAllocs pins the pooled-scratch contract of the
// grouping stage: Submit takes a batchGroups out of Pipeline.gpool, and the
// deferred putGroups is what lets the next Submit reuse its per-shard runs.
// Drop that Put and every submit rebuilds the scratch and regrows each run
// (27 allocs for this batch); with it, what is left is the deliver closure,
// escaping through the admitLog interface.
//
// The pin is the cheapest of many single submits, not an average: pools
// only ever add to a run — the collector empties them, and under -race
// sync.Pool drops a quarter of all Puts on purpose — while a missing Put is
// paid by every run.
func TestSubmitGroupingAllocs(t *testing.T) {
	s := newSharded(t, 4)
	p := newPipeline(t, s, Config{})
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
		if _, err := p.Submit(batch); err != nil {
			t.Fatal(err)
		}
	}
	// Steady state: the first submits create the leaf slots and the queues'
	// two backing arrays, every later one merges into the slots and refills
	// the arrays, so neither the enqueue nor the committers' drains allocate
	// (the count is process-wide, committers included). The flush between
	// runs, outside the count, starts each from empty queues.
	least := testing.AllocsPerRun(1, submit)
	for i := 0; i < 100; i++ {
		p.Flush()
		least = min(least, testing.AllocsPerRun(1, submit))
	}
	if least != 1 {
		t.Fatalf("steady-state Submit of a 64-edge, 4-shard batch = %v allocs at best, want 1: is the grouping scratch still returned to its pool?", least)
	}
}
