package rcache

import (
	"math"
	"sync/atomic"
	"testing"
	"unsafe"

	"higgs/internal/query"
)

// fakeBackend is a Backend of n shards that answers every probe with
// answer(p), at a version the test advances by hand. Nothing freezes: the
// frontier stays at math.MinInt64.
type fakeBackend struct {
	n     int
	ver   atomic.Uint64
	calls atomic.Int64
}

func answer(p query.Probe) int64 { return int64(p.S)<<32 + int64(p.D)<<2 + int64(p.Op) }

func (b *fakeBackend) NumShards() int        { return b.n }
func (b *fakeBackend) ShardFor(v uint64) int { return int(v % uint64(b.n)) }
func (b *fakeBackend) ProbeShard(_ int, probes []query.Probe, out []int64) {
	b.calls.Add(1)
	for j, p := range probes {
		out[j] = answer(p)
	}
}
func (b *fakeBackend) ShardVersion(int) uint64 { return b.ver.Load() }
func (b *fakeBackend) ShardFrontier(int) (int64, uint64) {
	return math.MinInt64, 0
}

// TestCapacityFromBudget pins how a shard's byte budget becomes its table
// of 64-byte entries and 64-byte set lines: ⌊budget / entryBytes⌋ entries
// rounded down to whole sets, and never fewer than one entry. Through New,
// a budget slice below one entry still gets one.
func TestCapacityFromBudget(t *testing.T) {
	if e, s := unsafe.Sizeof(entry{}), unsafe.Sizeof(set{}); e != 64 || s != 64 {
		t.Fatalf("an entry is %d bytes and a set's line %d, want one 64-byte line each", e, s)
	}
	for _, tc := range []struct {
		budget int64
		want   int
	}{
		{entryBytes, 1},
		{ways*entryBytes - 1, 1}, // seven entries make no set: the floor
		{ways * entryBytes, ways},
		{2*ways*entryBytes - 1, ways},
		{MinBytes, 544},       // 546 entries
		{MinBytes / 3, 176},   // 182 entries
		{(1 << 20) / 4, 2184}, // exactly 273 sets
	} {
		var cs cacheShard
		cs.init(tc.budget)
		if got := capacity(tc.budget); got != tc.want {
			t.Fatalf("capacity(%d) = %d, want %d", tc.budget, got, tc.want)
		}
		if len(cs.entries) != tc.want || len(cs.sets)*cs.nways != tc.want || cs.nways != min(tc.want, ways) {
			t.Fatalf("budget %d: %d sets of %d ways over %d entries, want %d entries", tc.budget, len(cs.sets), cs.nways, len(cs.entries), tc.want)
		}
	}

	b := &fakeBackend{n: 600} // MinBytes / 600 < entryBytes
	c := newCache(t, b, MinBytes)
	var out [1]int64
	for d := uint64(0); d < 50; d++ {
		c.ProbeShard(7, []query.Probe{{Op: query.OpEdge, S: 7, D: d, Te: 100}}, out[:])
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 49 || st.MaxBytes != 600*entryBytes {
		t.Fatalf("50 misses into a one-entry shard: %+v, want 1 entry and 49 evictions", st)
	}
}

// TestSetEvictsLeastRecentlyUsed drives one shard of a single set through
// its replacement rule: a miss into a full set evicts the way used longest
// ago, a hit makes a way the newest, and two keys with the same tag are
// still two entries — a tag only narrows the scan, the full key decides.
func TestSetEvictsLeastRecentlyUsed(t *testing.T) {
	b := &fakeBackend{n: 1}
	c := newCache(t, b, MinBytes)
	cs := &c.shards[0]
	cs.init(ways * entryBytes)
	if len(cs.sets) != 1 || cs.nways != ways {
		t.Fatalf("%d sets of %d ways, want one set of %d", len(cs.sets), cs.nways, ways)
	}
	// ask probes p and reports whether it was answered without the backend.
	ask := func(p query.Probe) bool {
		t.Helper()
		var out [1]int64
		calls := b.calls.Load()
		c.ProbeShard(0, []query.Probe{p}, out[:])
		if out[0] != answer(p) {
			t.Fatalf("%+v answered %d, want %d", p, out[0], answer(p))
		}
		return b.calls.Load() == calls
	}
	edge := func(d uint64) query.Probe { return query.Probe{Op: query.OpEdge, S: 1, D: d, Te: 100} }

	for d := uint64(0); d < ways; d++ {
		if ask(edge(d)) {
			t.Fatalf("edge %d hit in an empty cache", d)
		}
	}
	if !ask(edge(0)) { // the oldest fill becomes the newest use
		t.Fatal("edge 0 missed in a set that holds it")
	}
	ask(edge(ways)) // full set: edge 1 is now the least recently used
	for _, d := range []uint64{0, 2, 3, 4, 5, 6, 7, ways} {
		if !ask(edge(d)) {
			t.Fatalf("edge %d was evicted; the least recently used way held edge 1", d)
		}
	}
	if ask(edge(1)) {
		t.Fatal("edge 1 survived a miss into a full set where it was the least recently used")
	}
	if st := c.Stats(); st.Entries != ways || st.Evictions != 2 {
		t.Fatalf("%+v, want %d entries and 2 evictions", st, ways)
	}

	// Two keys with the same tag: the birthday bound finds a pair among
	// ~2^16 keys of 31-bit tags.
	cs.init(ways * entryBytes)
	seen := make(map[uint32]query.Probe)
	var a, z query.Probe
	for d := uint64(0); ; d++ {
		p := edge(d)
		tag := cs.locate(&p).tag
		if prev, ok := seen[tag]; ok {
			a, z = prev, p
			break
		}
		seen[tag] = p
	}
	ask(a)
	if ask(z) {
		t.Fatalf("%+v and %+v share tag %#x: the second hit the first's entry", a, z, cs.locate(&a).tag)
	}
	if !ask(a) || !ask(z) {
		t.Fatalf("%+v and %+v share a tag and did not both stay resident", a, z)
	}
}

// BenchmarkProbeShard times one 16-probe group through a full cache shard
// over a constant backend, so each row is the cache's own cost: the group
// hits; the group is new and every probe evicts; the version moved and
// every probe refills its stale entry in place.
func BenchmarkProbeShard(b *testing.B) {
	probes := make([]query.Probe, 16)
	out := make([]int64, len(probes))
	var d uint64
	next := func() {
		for i := range probes {
			d++
			probes[i] = query.Probe{Op: query.OpEdge, S: 1, D: d, Te: 1 << 20}
		}
	}
	for _, row := range []struct {
		name string
		each func(*fakeBackend)
	}{
		{"hit", func(*fakeBackend) {}},
		{"miss", func(*fakeBackend) { next() }},
		{"stale", func(be *fakeBackend) { be.ver.Add(1) }},
	} {
		b.Run(row.name, func(b *testing.B) {
			be := &fakeBackend{n: 1}
			c := newCache(b, be, 1<<20)
			for c.Stats().Entries < int64(len(c.shards[0].entries)) {
				next()
				c.ProbeShard(0, probes, out) // the last group stays resident
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				row.each(be)
				c.ProbeShard(0, probes, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(probes)), "ns/probe")
		})
	}
}
