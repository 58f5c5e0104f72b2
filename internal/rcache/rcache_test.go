package rcache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"higgs/internal/ingest"
	"higgs/internal/query"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

func testStream(t *testing.T, nodes, edges int) stream.Stream {
	t.Helper()
	st, err := stream.Generate(stream.Config{
		Nodes: nodes, Edges: edges, Span: 50_000, Skew: 2.0, Variance: 900,
		Slices: 200, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newSharded(t *testing.T, shards int) *shard.Summary {
	t.Helper()
	cfg := shard.DefaultConfig()
	cfg.Shards = shards
	s, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newCache(t testing.TB, b Backend, maxBytes int64) *Cache {
	t.Helper()
	c, err := New(b, Config{MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mixedQueries builds a deterministic batch cycling through every query
// kind over the stream's vertex population.
func mixedQueries(st stream.Stream, n int) []query.Query {
	if len(st) == 0 {
		panic("empty stream")
	}
	ts, te := st[0].T, st[len(st)-1].T
	qs := make([]query.Query, 0, n)
	for i := 0; i < n; i++ {
		e := st[(i*37)%len(st)]
		f := st[(i*53+7)%len(st)]
		switch i % 5 {
		case 0:
			qs = append(qs, query.NewEdge(e.S, e.D, ts, te))
		case 1:
			qs = append(qs, query.NewVertexOut(e.S, ts, te))
		case 2:
			qs = append(qs, query.NewVertexIn(e.D, ts, te))
		case 3:
			qs = append(qs, query.NewPath([]uint64{e.S, e.D, f.D}, ts, te))
		case 4:
			qs = append(qs, query.NewSubgraph([][2]uint64{{e.S, e.D}, {f.S, f.D}}, ts, te))
		}
	}
	return qs
}

func assertSameResults(t *testing.T, label string, got, want []query.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Weight != want[i].Weight || (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("%s: query %d: cached %+v, uncached %+v", label, i, got[i], want[i])
		}
	}
}

func TestConfigValidate(t *testing.T) {
	s := newSharded(t, 1)
	if _, err := New(s, Config{MaxBytes: MinBytes - 1}); err == nil {
		t.Fatal("accepted sub-minimum byte budget")
	}
	if _, err := New(s, Config{}); err == nil {
		t.Fatal("accepted zero config")
	}
	if _, err := New(s, Config{MaxBytes: MinBytes}); err != nil {
		t.Fatalf("rejected minimum budget: %v", err)
	}
}

// TestCachedEqualsUncached is the package's correctness anchor: through
// every query kind, across cold and hot cache states, and across
// interleaved mutations, the cache must answer exactly like the backend.
func TestCachedEqualsUncached(t *testing.T) {
	for _, shards := range []int{1, 3} {
		st := testStream(t, 120, 8_000)
		s := newSharded(t, shards)
		c := newCache(t, s, 8<<20)
		qs := mixedQueries(st, 200)

		verify := func(label string) {
			t.Helper()
			want := query.DoBatch(s, qs)
			assertSameResults(t, label+"/cold", query.DoBatch(c, qs), want)
			// Hot pass: now everything should come from the cache.
			assertSameResults(t, label+"/hot", query.DoBatch(c, qs), want)
		}

		s.InsertBatch(st[:len(st)/2])
		verify("half")
		s.InsertBatch(st[len(st)/2:])
		verify("full")
		cutoff := st[0].T + (st[len(st)-1].T-st[0].T)/2
		s.Expire(cutoff)
		verify("expired")
		s.Insert(stream.Edge{S: st[0].S, D: st[0].D, W: 5, T: st[len(st)-1].T})
		verify("post-insert")
	}
}

// countingBackend counts backend lock acquisitions: every ProbeShard call
// is exactly one read-lock acquisition on the underlying shard.
type countingBackend struct {
	*shard.Summary
	calls atomic.Int64
}

func (b *countingBackend) ProbeShard(i int, probes []query.Probe, out []int64) {
	b.calls.Add(1)
	b.Summary.ProbeShard(i, probes, out)
}

// TestFullHitZeroBackendLocks pins the tentpole's lock claim: a batch
// whose probes all hit acquires zero backend read locks.
func TestFullHitZeroBackendLocks(t *testing.T) {
	st := testStream(t, 100, 5_000)
	s := newSharded(t, 4)
	s.InsertBatch(st)
	b := &countingBackend{Summary: s}
	c := newCache(t, b, 8<<20)
	qs := mixedQueries(st, 100)

	query.DoBatch(c, qs) // cold: fills
	filled := b.calls.Load()
	if filled == 0 {
		t.Fatal("cold pass never touched the backend")
	}
	if got := query.DoBatch(c, qs); len(got) != len(qs) {
		t.Fatalf("hot pass returned %d results", len(got))
	}
	if extra := b.calls.Load() - filled; extra != 0 {
		t.Fatalf("full-hit batch acquired %d backend locks, want 0", extra)
	}
	stats := c.Stats()
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Fatalf("stats did not count both hits and misses: %+v", stats)
	}
}

// TestStaleEntryEvictedOnMutation pins invalidation: after any applied
// write to a shard, previously cached entries for that shard must not be
// served, and the refreshed answer must reflect the write.
func TestStaleEntryEvictedOnMutation(t *testing.T) {
	s := newSharded(t, 1)
	c := newCache(t, s, MinBytes)
	s.Insert(stream.Edge{S: 1, D: 2, W: 3, T: 10})

	q := query.NewEdge(1, 2, 0, 100)
	if w := query.Do(c, q).Weight; w != 3 {
		t.Fatalf("initial cached weight = %d, want 3", w)
	}
	s.Insert(stream.Edge{S: 1, D: 2, W: 4, T: 20})
	if w := query.Do(c, q).Weight; w != 7 {
		t.Fatalf("post-insert cached weight = %d, want 7 (stale serve?)", w)
	}
	if ev := c.Stats().Evictions; ev == 0 {
		t.Fatal("stale entry was not evicted")
	}
}

// TestEvictionRespectsBudget fills far past the byte budget and checks
// the bound holds.
func TestEvictionRespectsBudget(t *testing.T) {
	s := newSharded(t, 1)
	s.Insert(stream.Edge{S: 1, D: 2, W: 1, T: 10})
	c := newCache(t, s, MinBytes) // 64 KiB / 120 B ≈ 546 entries
	var out [1]int64
	for i := 0; i < 3_000; i++ {
		c.ProbeShard(0, []query.Probe{{Op: query.OpEdge, S: 1, D: uint64(i), Ts: 0, Te: 100}}, out[:])
	}
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 3000 distinct probes in a 64 KiB budget")
	}
	if st.Entries <= 0 || st.Entries > st.MaxBytes/entryBytes {
		t.Fatalf("entries %d out of range (budget admits %d)", st.Entries, st.MaxBytes/entryBytes)
	}
}

// TestNoStaleUnderConcurrentExpire is the -race invalidation test the
// issue asks for: concurrent cached reads race a writer driving
// Pipeline.Expire and inserts, and every answer must be one an uncached
// reader could have observed in the same window.
func TestNoStaleUnderConcurrentExpire(t *testing.T) {
	noStaleUnderWrites(t, [][2]int64{{0, 1 << 40}})
}

// TestNoStaleFrozenUnderConcurrentExpire is the same race over windows the
// stream has moved past: their entries freeze as soon as the frontier
// clears te, are served across every later insert without touching the
// shard, and must still die with each reclaiming expire.
func TestNoStaleFrozenUnderConcurrentExpire(t *testing.T) {
	st := noStaleUnderWrites(t, [][2]int64{{0, 40_000}, {30_000, 120_000}, {0, 200_000}, {150_000, 260_000}})
	if st.FrozenHits == 0 {
		t.Fatalf("no frozen hit in %+v: the readers never met a frozen entry", st)
	}
}

// noStaleUnderWrites races four readers, reader r asking about
// windows[r%len(windows)] on edge 1→2, against a writer that alternates
// inserts and Pipeline.Expire, and returns the cache's final counters.
//
// The op sequence is deterministic, so a reference summary replays it
// up front to produce expected[w][j] — window w's exact answer after ops
// 0..j. The writer publishes a step counter after applying each op; a
// reader brackets its query between two counter loads (b, a) and the answer
// must equal expected[w][j] for some j in [b, a+1] (the writer may have
// applied — but not yet published — op a+1). A cache serving anything stale
// returns an answer from before b and fails the membership check.
func noStaleUnderWrites(t *testing.T, windows [][2]int64) Stats {
	const steps = 300
	// All edges share source vertex 1 so every mutation is a single
	// write-lock section on one shard, making each op atomic with respect
	// to the probing reader.
	type op struct {
		edges  []stream.Edge
		cutoff int64 // expire when > 0
	}
	ops := make([]op, steps)
	for j := range ops {
		tj := int64(j+1) * 1_000
		if j%4 == 3 {
			ops[j] = op{cutoff: tj - 2_000}
		} else {
			ops[j] = op{edges: []stream.Edge{{S: 1, D: 2, W: int64(j%7 + 1), T: tj}}}
		}
	}

	cfg := shard.DefaultConfig()
	cfg.Shards = 2

	// Reference replay: expected[w][j] is the authoritative uncached answer
	// after ops[0..j]; expected[w][0] is the empty summary.
	ref, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	expected := make([][]int64, len(windows))
	for w := range expected {
		expected[w] = make([]int64, steps+1)
	}
	for j, o := range ops {
		if o.cutoff > 0 {
			ref.Expire(o.cutoff)
		} else {
			ref.InsertBatch(o.edges)
		}
		for w, win := range windows {
			expected[w][j+1] = ref.EdgeWeight(1, 2, win[0], win[1])
		}
	}
	for w, win := range windows {
		sawDecrease := false
		for j := range ops {
			sawDecrease = sawDecrease || expected[w][j+1] < expected[w][j]
		}
		if !sawDecrease {
			t.Fatalf("no expire ever lowered the answer over %v; the op sequence does not exercise expiry invalidation", win)
		}
	}

	live, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := ingest.New(live, ingest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	c := newCache(t, live, MinBytes)

	var step, reads atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})
	fail := make(chan string, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := query.NewEdge(1, 2, windows[w][0], windows[w][1])
			for {
				select {
				case <-done:
					return
				default:
				}
				b := step.Load()
				got := query.Do(c, q).Weight
				a := step.Load()
				reads.Add(1)
				hi := a + 1
				if hi > steps {
					hi = steps
				}
				ok := false
				for j := b; j <= hi; j++ {
					if got == expected[w][j] {
						ok = true
						break
					}
				}
				if !ok {
					select {
					case fail <- fmt.Sprintf("stale cached answer over %v: got %d outside steps [%d..%d] = %v", windows[w], got, b, hi, expected[w][b:hi+1]):
					default:
					}
					return
				}
			}
		}(r % len(windows))
	}

	for _, o := range ops {
		if o.cutoff > 0 {
			if _, err := pipe.Expire(o.cutoff); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := pipe.Submit(o.edges); err != nil {
				t.Fatal(err)
			}
			pipe.Flush() // the step counts applied ops
		}
		step.Add(1)
		// Let the readers in between ops: on a small box the writer would
		// otherwise finish before they are scheduled at all.
		for seen := reads.Load(); reads.Load() < seen+2 && len(fail) == 0; {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// Quiesced: the final cached answers must be the final reference ones.
	for w, win := range windows {
		if got := query.Do(c, query.NewEdge(1, 2, win[0], win[1])).Weight; got != expected[w][steps] {
			t.Fatalf("final cached answer over %v is %d, want %d", win, got, expected[w][steps])
		}
	}
	return c.Stats()
}
