package bench

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"higgs/internal/metrics"
	"higgs/internal/query"
	"higgs/internal/rcache"
	"higgs/internal/shard"
)

// readCachePool is the distinct-query universe of the skewed workload:
// small enough that a Zipf-skewed client re-asks the same questions, large
// enough that the cache has to hold a real working set.
const readCachePool = 256

// readCacheDraws is the skewed-workload volume per row.
const readCacheDraws = 6144

// readCacheEquivQueries is the mixed workload replayed after every epoch
// of the equivalence phase.
const readCacheEquivQueries = 600

// readCacheBudget comfortably fits the full probe working set, so the
// hit-rate floor measures invalidation correctness, not eviction pressure.
const readCacheBudget int64 = 4 << 20

// readCacheGate is the watermark-invalidated read cache gate
// (internal/rcache, DESIGN.md §16). Three contracts hard-fail the run
// rather than warn:
//
//   - equivalence: cached DoBatch answers must be identical to uncached
//     DoBatch answers after every epoch of an interleaved
//     ingest → expire → summary-swap sequence. The expire must actually
//     reclaim leaves (a vacuous expire would not exercise invalidation),
//     and the swap rebuilds the cache the way server.ReplaceSummary does.
//     One epoch asks only about windows every shard's append frontier has
//     passed: a whole slab ingested on top of them must leave the answers
//     identical and send none of the batch back to the shards.
//   - zero-lock full hits: replaying an identical batch against a warm
//     cache must reach the backend zero times, measured by a counting
//     Backend — the cache strengthens the planner's ≤1-lock-per-shard
//     invariant to 0 for hot shards.
//   - skewed-repeat payoff: a Zipf-skewed workload over a small query pool
//     must hit ≥ 80% and run faster through the cache than against the
//     bare summary, with byte-identical answers.
//
// The hit rate and lock count are deterministic (TestExperimentsSmoke
// holds the measured hit rate to ≥ 90 % as a drift alarm); throughput is
// recorded in the artifact but, as with the batchquery gate, only the
// in-run "cached beats uncached" ordering is enforced — absolute QPS
// swings too much on shared runners.
var readCacheGate = gate{
	id:      "readcache",
	title:   "Extra: watermark-invalidated read cache — equivalence + zero-lock hits (internal/rcache)",
	header:  "Extra: watermark-invalidated read cache (internal/rcache)",
	columns: []string{"uncached", "cached", "speedup", "hit-rate", "locks/full-hit", "verify"},
	shards:  shardCounts,
	row:     readCacheRow,
}

// assertCachedEqualsUncached replays the workload through both probers and
// hard-fails on the first divergence — the cache's core contract is that a
// hit is indistinguishable from an uncached probe.
func assertCachedEqualsUncached(epoch string, cached, uncached query.Prober, qs []query.Query) error {
	want, err := batchedAnswers(uncached, qs)
	if err != nil {
		return fmt.Errorf("%s: uncached: %w", epoch, err)
	}
	got, err := batchedAnswers(cached, qs)
	if err != nil {
		return fmt.Errorf("%s: cached: %w", epoch, err)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: query %d (%v): cached = %d, uncached = %d",
				epoch, i, qs[i].Kind, got[i], want[i])
		}
	}
	return nil
}

// closedBefore returns qs with every window cut to end before the oldest of
// s's per-shard append frontiers: questions no later insert can reach.
func closedBefore(qs []query.Query, s *shard.Summary) ([]query.Query, error) {
	end := int64(math.MaxInt64)
	for i := 0; i < s.NumShards(); i++ {
		f, _ := s.ShardFrontier(i)
		end = min(end, f)
	}
	if end == math.MinInt64 {
		return nil, fmt.Errorf("a shard is still empty after two thirds of the stream; no window is closed on it")
	}
	out := slices.Clone(qs)
	for i := range out {
		out[i].Te = min(out[i].Te, end-1)
		out[i].Ts = min(out[i].Ts, out[i].Te)
	}
	return out, nil
}

// readCacheRow measures and verifies one (dataset, shard count) row.
func readCacheRow(c *gateCase) ([]string, error) {
	ds, seed, cfg := c.ds, c.seed, c.shardConfig()
	s, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	cache, err := rcache.New(s, rcache.Config{MaxBytes: readCacheBudget})
	if err != nil {
		return nil, err
	}
	// A second cache whose trips to the shards are counted.
	counter := &countingProber{Summary: s}
	counted, err := rcache.New(counter, rcache.Config{MaxBytes: readCacheBudget})
	if err != nil {
		return nil, err
	}

	// Phase 1 — equivalence epochs: ingest in thirds, expire between the
	// second and third slab, then swap summaries the way a replica resync
	// does (fresh summary, fresh cache). The SAME cache instance survives
	// the ingest and expire epochs, so each check exercises invalidation of
	// entries the previous epoch filled.
	qs := batchWorkload(ds, readCacheEquivQueries, seed)
	epochs := 0
	third := len(ds.Stream) / 3
	slabs := []struct {
		name string
		lo   int
		hi   int
	}{
		{"epoch1-ingest", 0, third},
		{"epoch2-ingest", third, 2 * third},
		{"epoch4-ingest", 2 * third, len(ds.Stream)},
	}
	for i, slab := range slabs {
		var closed []query.Query
		if i == 2 {
			// Epoch 3 — expire: cut everything wholly behind the ingest
			// frontier's midpoint so whole subtrees drop and the affected
			// shards' versions must advance.
			cutoff := ds.Stream[third].T
			if dropped := s.ExpireAt(cutoff, 0); dropped <= 0 {
				return nil, fmt.Errorf("expire at %d dropped %d leaves; the epoch never bites", cutoff, dropped)
			}
			if err := assertCachedEqualsUncached("epoch3-expire", cache, s, qs); err != nil {
				return nil, err
			}
			epochs++
			// Fill the counted cache with closed windows, for the frozen
			// epoch after the slab below.
			if closed, err = closedBefore(qs[:batchQuerySize], s); err != nil {
				return nil, err
			}
			if _, err := batchedAnswers(counted, closed); err != nil {
				return nil, err
			}
		}
		s.InsertBatch(ds.Stream[slab.lo:slab.hi])
		if err := assertCachedEqualsUncached(slab.name, cache, s, qs); err != nil {
			return nil, err
		}
		epochs++
		if i == 2 {
			// Frozen epoch: the third slab moved every shard's version, and
			// none of it landed inside the closed windows — same answers,
			// and not one probe group goes back to a shard.
			before := counter.calls.Load()
			if err := assertCachedEqualsUncached("epoch4-frozen", counted, s, closed); err != nil {
				return nil, err
			}
			if n := counter.calls.Load() - before; n != 0 {
				return nil, fmt.Errorf("after a slab of appends the closed-window batch acquired %d shard read locks, want 0", n)
			}
			epochs++
		}
	}
	// Epoch 5 — summary swap: a fresh summary with different content and a
	// fresh cache bound to it, exactly what server.ReplaceSummary installs.
	swapped, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	swapped.InsertBatch(ds.Stream[:2*third])
	swapCache, err := rcache.New(swapped, rcache.Config{MaxBytes: readCacheBudget})
	if err != nil {
		return nil, err
	}
	if err := assertCachedEqualsUncached("epoch5-swap", swapCache, swapped, qs); err != nil {
		return nil, err
	}
	epochs++

	// Phase 2 — zero-lock full hits, on the quiesced post-ingest summary:
	// fill with one pass over a batch, then the identical replay must not
	// reach the backend at all.
	hot := qs[:batchQuerySize]
	if _, err := batchedAnswers(counted, hot); err != nil {
		return nil, err
	}
	before := counter.calls.Load()
	if _, err := batchedAnswers(counted, hot); err != nil {
		return nil, err
	}
	locksFullHit := counter.calls.Load() - before
	if locksFullHit != 0 {
		return nil, fmt.Errorf("full-hit replay acquired %d shard read locks, want 0", locksFullHit)
	}

	// Phase 3 — skewed repeat workload: Zipf-distributed draws from a small
	// pool, the hot-read regime the cache exists for. Uncached first, then
	// cached (cold — its misses are the pool's first appearances), with the
	// hit rate measured over the timed pass.
	pool := batchWorkload(ds, readCachePool, seed+1)
	rng := rand.New(rand.NewSource(seed + 2))
	zipf := rand.NewZipf(rng, 1.2, 1, readCachePool-1)
	seq := make([]query.Query, readCacheDraws)
	for i := range seq {
		seq[i] = pool[zipf.Uint64()]
	}

	start := time.Now()
	want, err := batchedAnswers(s, seq)
	if err != nil {
		return nil, err
	}
	uncachedQPS := metrics.Throughput(int64(len(seq)), time.Since(start))

	hot2, err := rcache.New(s, rcache.Config{MaxBytes: readCacheBudget})
	if err != nil {
		return nil, err
	}
	statsBefore := hot2.Stats()
	start = time.Now()
	got, err := batchedAnswers(hot2, seq)
	if err != nil {
		return nil, err
	}
	cachedQPS := metrics.Throughput(int64(len(seq)), time.Since(start))
	statsAfter := hot2.Stats()

	for i := range want {
		if got[i] != want[i] {
			return nil, fmt.Errorf("skewed query %d (%v): cached = %d, uncached = %d",
				i, seq[i].Kind, got[i], want[i])
		}
	}
	hits := statsAfter.Hits - statsBefore.Hits
	misses := statsAfter.Misses - statsBefore.Misses
	hitRate := float64(hits) / float64(hits+misses)
	if hitRate < 0.8 {
		return nil, fmt.Errorf("skewed workload hit rate %.1f%%, want ≥ 80%%", 100*hitRate)
	}
	if cachedQPS <= uncachedQPS {
		return nil, fmt.Errorf("cached %.0f q/s did not beat uncached %.0f q/s", cachedQPS, uncachedQPS)
	}
	c.record("uncached_qps", uncachedQPS)
	c.record("cached_qps", cachedQPS)
	c.record("hit_rate", hitRate)
	c.record("locks_full_hit", float64(locksFullHit))
	return []string{
		metrics.FormatEPS(uncachedQPS), metrics.FormatEPS(cachedQPS),
		fmt.Sprintf("%.2f×", cachedQPS/uncachedQPS),
		fmt.Sprintf("%.1f%%", 100*hitRate),
		fmt.Sprint(locksFullHit),
		fmt.Sprintf("%d epochs identical", epochs)}, nil
}
