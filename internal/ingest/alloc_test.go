package ingest

import (
	"testing"

	"higgs/internal/stream"
	"higgs/internal/wal"
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

// TestApplyAllocs pins the replay half's grouping: Applier.Apply hands a
// record to shard.Mutate, which splits it into per-shard runs held in
// pooled scratch that keeps its capacity from record to record, so a
// warmed Apply of a 256-edge record over 4 shards — what boot recovery and
// a follower do per record — allocates nothing. (Runs kept in a map that
// is cleared per record regrow every one of them, every time.) The edges
// repeat, so the core merges them into existing entries and the tree does
// not grow; the pin is the cheapest of many single applies.
func TestApplyAllocs(t *testing.T) {
	s := newSharded(t, 4)
	a := NewApplier(s)
	batch := make([]stream.Edge, 256)
	targeted := make(map[int]bool)
	for i := range batch {
		batch[i] = stream.Edge{S: uint64(i%64 + 1), D: uint64(i%7 + 1), W: 1, T: 10}
		targeted[s.ShardFor(batch[i].S)] = true
	}
	if len(targeted) != 4 {
		t.Fatalf("record targets %d of 4 shards; the pin is for a multi-shard record", len(targeted))
	}
	next := uint64(1)
	apply := func() {
		if err := a.Apply(wal.Record{Mutation: stream.Mutation{Kind: stream.Insert, Edges: batch}, FirstSeq: next}); err != nil {
			t.Fatal(err)
		}
		next += uint64(len(batch))
	}
	least := testing.AllocsPerRun(1, apply)
	for i := 0; i < 100; i++ {
		least = min(least, testing.AllocsPerRun(1, apply))
	}
	if least != 0 {
		t.Fatalf("warmed Apply of a 256-edge, 4-shard record = %v allocs at best, want 0", least)
	}
	if got, want := a.Applied(), int64(next-1); got != want {
		t.Fatalf("Applied = %d, want %d: every edge applies once", got, want)
	}
}
