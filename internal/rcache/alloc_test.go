package rcache

import (
	"testing"

	"higgs/internal/query"
	"higgs/internal/stream"
)

// TestProbeShardFullHitZeroAlloc pins the allocation contract of the read
// cache's hit path: once a probe batch is resident, replaying it touches
// only the cache shard's table — each probe's set line and entry — with no
// backend call and no allocation. Any regression (a key that escapes,
// probe boxing, slice growth on the hit path) shows up here as a nonzero
// allocs/op long before it would move a benchmark. The frozen variant
// replays after the shard's version has moved: windows that ended before
// the fill's frontier are served by the rewrite count, at the same cost.
func TestProbeShardFullHitZeroAlloc(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		sum := newSharded(t, 2)
		b := &countingBackend{Summary: sum}
		c := newCache(t, b, 1<<20)
		sum.InsertShardAt(0, []stream.Edge{{S: 1, D: 2, W: 3, T: 200}}, 0)

		probes := make([]query.Probe, 32)
		for i := range probes {
			probes[i] = query.Probe{Op: query.OpEdge, S: 1, D: uint64(i + 2), Ts: 0, Te: 100}
		}
		out := make([]int64, len(probes))
		c.ProbeShard(0, probes, out)
		if frozen {
			sum.InsertShardAt(0, []stream.Edge{{S: 1, D: 2, W: 3, T: 300}}, 0)
		}

		primed := b.calls.Load()
		allocs := testing.AllocsPerRun(100, func() {
			c.ProbeShard(0, probes, out)
		})
		if allocs != 0 {
			t.Fatalf("frozen=%v: full-hit ProbeShard allocated %v allocs/op; the hit path must stay allocation-free", frozen, allocs)
		}
		if got := b.calls.Load(); got != primed {
			t.Fatalf("frozen=%v: full-hit replay reached the backend %d times; the replay was not actually all hits", frozen, got-primed)
		}
		s := c.Stats()
		if s.Hits == 0 {
			t.Fatalf("no cache hits recorded (stats %+v); the zero-alloc measurement was vacuous", s)
		}
		if frozen != (s.FrozenHits > 0) {
			t.Fatalf("frozen=%v but stats %+v", frozen, s)
		}
	}
}

// TestProbeShardStaleRefillAllocs pins the miss path's allocations: a group
// whose entries have all gone stale is refilled in place — each in the way
// that already holds its key — and the miss scratch comes from the pool.
// Each displaced entry still counts as an eviction. The pin is the
// cheapest of many single refills, not an average: a pool may drop what it
// is given (under -race a quarter of all Puts), and a dropped scratch is
// rebuilt from four slices.
func TestProbeShardStaleRefillAllocs(t *testing.T) {
	sum := newSharded(t, 2)
	c := newCache(t, sum, 1<<20)
	probes := make([]query.Probe, 32)
	for i := range probes {
		// Windows that reach past every frontier below: never frozen.
		probes[i] = query.Probe{Op: query.OpEdge, S: 1, D: uint64(i + 2), Ts: 0, Te: 1 << 40}
	}
	out := make([]int64, len(probes))
	write := []stream.Edge{{S: 1, D: 2, W: 1}}
	refill := func() {
		write[0].T++
		sum.InsertShardAt(0, write, 0)
		c.ProbeShard(0, probes, out)
	}
	refill()
	refill()
	before := c.Stats()
	least := testing.AllocsPerRun(1, refill)
	for i := 0; i < 100; i++ {
		least = min(least, testing.AllocsPerRun(1, refill))
	}
	if least != 0 {
		t.Fatalf("refilling %d stale entries allocated %v times at best, want 0", len(probes), least)
	}
	after := c.Stats()
	if refills := (after.Misses - before.Misses) / uint64(len(probes)); after.Evictions-before.Evictions != refills*uint64(len(probes)) || after.Entries != int64(len(probes)) {
		t.Fatalf("%d refills moved the counters from %+v to %+v: every stale entry counts as one eviction and none is added", refills, before, after)
	}
	if out[0] != write[0].T {
		t.Fatalf("refilled answer %d, want the %d edges written", out[0], write[0].T)
	}
}

// TestProbeShardFullFillAllocs pins the fill path at capacity: once every
// set of a cache shard is full, each miss of a group it has never seen
// takes its set's least recently used way — no allocation. Each miss
// counts one eviction, the entry count never exceeds the capacity, and the
// group just filled is resident: a full set evicts, it does not refuse.
func TestProbeShardFullFillAllocs(t *testing.T) {
	sum := newSharded(t, 1)
	sum.InsertShardAt(0, []stream.Edge{{S: 1, D: 2, W: 3, T: 200}}, 0)
	c := newCache(t, sum, MinBytes)
	admits := int64(capacity(MinBytes))
	probes := make([]query.Probe, 32)
	out := make([]int64, len(probes))
	var d uint64
	fill := func() {
		for i := range probes {
			d++
			probes[i] = query.Probe{Op: query.OpEdge, S: 1, D: d, Ts: 0, Te: 100}
		}
		c.ProbeShard(0, probes, out)
	}
	for groups := 0; c.Stats().Entries < admits; groups++ {
		fill()
		if st := c.Stats(); st.Entries > admits || groups > 100*int(admits)/len(probes) {
			t.Fatalf("%+v after %d groups of fresh misses: want the %d entries the budget admits, no more", st, groups, admits)
		}
	}
	before := c.Stats()
	least := testing.AllocsPerRun(1, fill)
	for i := 0; i < 100; i++ {
		least = min(least, testing.AllocsPerRun(1, fill))
	}
	if least != 0 {
		t.Fatalf("filling %d misses into a full cache shard allocated %v times at best, want 0", len(probes), least)
	}
	after := c.Stats()
	misses := after.Misses - before.Misses
	if misses == 0 || after.Hits != before.Hits || after.Evictions-before.Evictions != misses || after.Entries != admits || before.Entries != admits {
		t.Fatalf("%d fresh misses moved the counters from %+v to %+v: want one eviction per miss and %d entries throughout", misses, before, after, admits)
	}
	c.ProbeShard(0, probes, out)
	if hits := c.Stats().Hits - after.Hits; hits != uint64(len(probes)) {
		t.Fatalf("replaying the group just filled hit %d of %d probes", hits, len(probes))
	}
}
