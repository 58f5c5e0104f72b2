package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"higgs/internal/core"
	"higgs/internal/metrics"
	"higgs/internal/query"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

// batchQuerySize is the client batch size of the batched rows: large
// enough to amortize per-shard locking, small enough to be a realistic
// /v2/query payload.
const batchQuerySize = 64

// batchQueryCount is the mixed-workload volume per row.
const batchQueryCount = 2000

// batchQueryGate measures the unified batch query API (internal/query,
// DESIGN.md §11) against per-kind method calls, and enforces the
// redesign's three contracts as errors, not warnings:
//
//   - independent reference: before any concurrent traffic, DoBatch must
//     answer every query exactly as per-partition unsharded core.Summary
//     references do. The per-kind methods are wrappers over the same
//     planner, so comparing only against them could not catch a planner
//     bug; the core references share no code with the batch path.
//   - identical answers: on a quiesced summary, DoBatch must answer every
//     query exactly as the per-kind methods do — batching changes locking,
//     never results;
//   - bounded locking: a batch must acquire at most one read lock per
//     shard, measured by counting ProbeShard calls (each is exactly one
//     read-lock acquisition) through a counting Prober.
//
// Throughput rows run a mixed workload — edge, vertex-out, vertex-in,
// 4-hop path, and 6-edge subgraph queries in equal parts — while
// concurrent producers keep inserting, the contended regime the batch API
// exists for: per-call queries pay one read-lock acquisition per probe
// group per call (a vertex-in query pays one per shard), while DoBatch
// pays at most one per shard per 64-query batch.
var batchQueryGate = gate{
	id:      "batchquery",
	title:   "Extra: batched vs per-call queries (internal/query)",
	columns: []string{"per-call", "batched", "speedup", "locks/batch", "verify"},
	shards:  shardCounts,
	row:     batchQueryRow,
}

// batchWorkload builds a deterministic mixed-kind workload over the
// dataset's vertices and time span.
func batchWorkload(ds *Dataset, count int, seed int64) []query.Query {
	rng := rand.New(rand.NewSource(seed))
	span := ds.Stats.Span()
	pick := func() stream.Edge { return ds.Stream[rng.Intn(len(ds.Stream))] }
	window := func() (int64, int64) {
		ts := rng.Int63n(span + 1)
		return ts, ts + rng.Int63n(span-ts+1)
	}
	qs := make([]query.Query, 0, count)
	for len(qs) < count {
		e := pick()
		ts, te := window()
		switch len(qs) % 5 {
		case 0:
			qs = append(qs, query.NewEdge(e.S, e.D, ts, te))
		case 1:
			qs = append(qs, query.NewVertexOut(e.S, ts, te))
		case 2:
			qs = append(qs, query.NewVertexIn(e.D, ts, te))
		case 3:
			path := []uint64{e.S, e.D}
			for len(path) < 5 {
				path = append(path, pick().D)
			}
			qs = append(qs, query.NewPath(path, ts, te))
		case 4:
			edges := make([][2]uint64, 0, 6)
			for len(edges) < 6 {
				x := pick()
				edges = append(edges, [2]uint64{x.S, x.D})
			}
			qs = append(qs, query.NewSubgraph(edges, ts, te))
		}
	}
	return qs
}

// perCallAnswers runs the workload one per-kind method call at a time —
// what a library caller without DoBatch pays: one plan and one lock visit
// per query (a /v1/* request is a one-element batch through the same
// planner).
func perCallAnswers(s *shard.Summary, qs []query.Query) []int64 {
	out := make([]int64, len(qs))
	for i, q := range qs {
		switch q.Kind {
		case query.KindEdge:
			out[i] = s.EdgeWeight(q.S, q.D, q.Ts, q.Te)
		case query.KindVertexOut:
			out[i] = s.VertexOut(q.V, q.Ts, q.Te)
		case query.KindVertexIn:
			out[i] = s.VertexIn(q.V, q.Ts, q.Te)
		case query.KindPath:
			out[i] = s.PathWeight(q.Path, q.Ts, q.Te)
		case query.KindSubgraph:
			out[i] = s.SubgraphWeight(q.Edges, q.Ts, q.Te)
		}
	}
	return out
}

// batchedAnswers runs the workload through DoBatch in client-sized
// batches against any Prober (the summary itself, or the lock-counting
// wrapper).
func batchedAnswers(p query.Prober, qs []query.Query) ([]int64, error) {
	out := make([]int64, 0, len(qs))
	for start := 0; start < len(qs); start += batchQuerySize {
		end := start + batchQuerySize
		if end > len(qs) {
			end = len(qs)
		}
		for i, r := range query.DoBatch(p, qs[start:end]) {
			if r.Err != nil {
				return nil, fmt.Errorf("batch query %d: %w", start+i, r.Err)
			}
			out = append(out, r.Weight)
		}
	}
	return out, nil
}

// verifyAgainstCoreRefs checks every batched answer against an
// independent engine: one unsharded core.Summary per partition, fed the
// same per-shard edge subsequence, queried directly (edge and vertex-out
// on the owning partition, vertex-in summed across partitions, path and
// subgraph as sums of per-edge reference lookups).
func verifyAgainstCoreRefs(s *shard.Summary, ccfg core.Config, st stream.Stream, qs []query.Query) error {
	refs := make([]*core.Summary, s.NumShards())
	for i := range refs {
		refs[i] = core.MustNew(ccfg)
	}
	for _, e := range st {
		refs[s.ShardFor(e.S)].Insert(e)
	}
	refEdge := func(sv, dv uint64, ts, te int64) int64 {
		return refs[s.ShardFor(sv)].EdgeWeight(sv, dv, ts, te)
	}
	want := func(q query.Query) int64 {
		switch q.Kind {
		case query.KindEdge:
			return refEdge(q.S, q.D, q.Ts, q.Te)
		case query.KindVertexOut:
			return refs[s.ShardFor(q.V)].VertexOut(q.V, q.Ts, q.Te)
		case query.KindVertexIn:
			var sum int64
			for _, r := range refs {
				sum += r.VertexIn(q.V, q.Ts, q.Te)
			}
			return sum
		case query.KindPath:
			var sum int64
			for i := 0; i+1 < len(q.Path); i++ {
				sum += refEdge(q.Path[i], q.Path[i+1], q.Ts, q.Te)
			}
			return sum
		case query.KindSubgraph:
			var sum int64
			for _, e := range q.Edges {
				sum += refEdge(e[0], e[1], q.Ts, q.Te)
			}
			return sum
		}
		return 0
	}
	got, err := batchedAnswers(s, qs)
	if err != nil {
		return err
	}
	for i, q := range qs {
		if w := want(q); got[i] != w {
			return fmt.Errorf("query %d (%v): batched = %d, core reference = %d", i, q.Kind, got[i], w)
		}
	}
	return nil
}

// batchQueryRow measures and verifies one (dataset, shard count) row. The
// stream's first 90% is pre-loaded; the tail is re-ingested in a loop by
// concurrent producers for the whole measurement window, so both query
// paths contend with live writers. Equivalence and lock accounting run
// after the writers stop, on the quiesced summary.
func batchQueryRow(c *gateCase) ([]string, error) {
	ds, n, seed, cfg := c.ds, c.n, c.seed, c.shardConfig()
	s, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}

	split := len(ds.Stream) * 9 / 10
	s.InsertBatch(ds.Stream[:split])
	tail := ds.Stream[split:]
	qs := batchWorkload(ds, batchQueryCount, seed)

	// Contract 0 — independent reference, before any concurrent traffic
	// (the pre-split summary content is deterministic; the writer phase
	// below is not). Expected answers are computed from per-partition
	// unsharded core summaries, which share no code with the batch
	// planner/executor.
	if err := verifyAgainstCoreRefs(s, cfg.Core, ds.Stream[:split], qs); err != nil {
		return nil, err
	}

	// Background producers: cycle the tail in group-committed slabs until
	// the measurement is done (re-inserted timestamps clamp per shard, so
	// ordering stays valid; throughput rows only need live write-lock
	// traffic, not a meaningful stream).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	writers := ingestProducers(n)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for off := w * 256; ; off += 256 {
				select {
				case <-stop:
					return
				default:
				}
				lo := off % len(tail)
				hi := lo + 256
				if hi > len(tail) {
					hi = len(tail)
				}
				s.InsertBatch(tail[lo:hi])
			}
		}(w)
	}

	start := time.Now()
	perCallAnswers(s, qs)
	perCallQPS := metrics.Throughput(int64(len(qs)), time.Since(start))

	start = time.Now()
	if _, err := batchedAnswers(s, qs); err != nil {
		close(stop)
		wg.Wait()
		return nil, err
	}
	batchedQPS := metrics.Throughput(int64(len(qs)), time.Since(start))

	close(stop)
	wg.Wait()

	// Contract 1 — identical answers on the quiesced summary.
	counter := &countingProber{Summary: s}
	var maxLocks int64 // most read locks any one batch acquired
	verified := 0
	want := perCallAnswers(s, qs)
	var got []int64
	for start := 0; start < len(qs); start += batchQuerySize {
		end := start + batchQuerySize
		if end > len(qs) {
			end = len(qs)
		}
		before := counter.calls.Load()
		part, err := batchedAnswers(counter, qs[start:end])
		if err != nil {
			return nil, err
		}
		got = append(got, part...)
		// Contract 2 — at most one read-lock acquisition per shard per batch.
		maxLocks = max(maxLocks, counter.calls.Load()-before)
	}
	for i := range want {
		if got[i] != want[i] {
			return nil, fmt.Errorf("query %d (%v): batched = %d, per-kind = %d",
				i, qs[i].Kind, got[i], want[i])
		}
		verified++
	}
	if maxLocks > int64(n) {
		return nil, fmt.Errorf("a batch acquired %d read locks, want ≤ %d (one per shard)",
			maxLocks, n)
	}
	c.record("percall_qps", perCallQPS)
	c.record("batched_qps", batchedQPS)
	c.record("locks_per_batch", float64(maxLocks))
	return []string{
		metrics.FormatEPS(perCallQPS), metrics.FormatEPS(batchedQPS),
		fmt.Sprintf("%.2f×", batchedQPS/perCallQPS),
		fmt.Sprintf("%d/%d", maxLocks, n),
		fmt.Sprintf("%d/%d identical+ref", verified, batchQueryCount)}, nil
}
