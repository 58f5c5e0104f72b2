package ingest

import (
	"testing"

	"higgs/internal/stream"
	"higgs/internal/wal"
)

// TestSubmitGroupingAllocs pins the pooled-scratch contract of routing:
// Submit hands its batch to shard.Summary.Route, which takes the per-shard
// runs out of the summary's pool and puts them back once enqueue has
// copied them into the queues, so the next Submit reuses them. Drop that
// Put and every submit rebuilds the scratch and regrows each run (25
// allocs for the 64-edge batch, 4 for one edge); with it, what is left is
// the deliver closure, escaping through the admitLog interface. A one-edge
// batch takes the same route as any other.
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
	for _, b := range [][]stream.Edge{batch, batch[:1]} {
		submit := func() {
			if _, err := p.Submit(b); err != nil {
				t.Fatal(err)
			}
		}
		// Steady state: the first submits create the leaf slots and the
		// queues' two backing arrays, every later one merges into the slots
		// and refills the arrays, so neither the enqueue nor the committers'
		// drains allocate (the count is process-wide, committers included).
		// The flush between runs, outside the count, starts each from empty
		// queues.
		least := testing.AllocsPerRun(1, submit)
		for i := 0; i < 100; i++ {
			p.Flush()
			least = min(least, testing.AllocsPerRun(1, submit))
		}
		if least != 1 {
			t.Fatalf("steady-state Submit of %d edges over 4 shards = %v allocs at best, want 1: is the routing scratch still returned to its pool?", len(b), least)
		}
	}
}

// TestApplyAllocs pins the replay half of routing: Applier.Apply hands a
// record to shard.Mutate, whose Route splits it into per-shard runs held
// in pooled scratch that keeps its capacity from record to record, so a
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
