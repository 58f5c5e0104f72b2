package bench

import (
	"fmt"
	"time"

	"higgs/internal/core"
	"higgs/internal/metrics"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

// shardedIngest measures how ingest throughput scales with the shard count
// of a shard.Summary, and verifies the sharding layer adds no error: each
// shard must answer exactly like an unsharded core summary fed the same
// partition of the stream.
//
// For every shard count N the stream is hash-partitioned by source vertex
// (the summary's own partitioning function) and ingested by N concurrent
// producers, one per shard, so writers never contend on a lock — the
// deployment shape of internal/server under concurrent clients. Reported
// speedup is relative to the single-shard row; it tracks the machine's
// usable parallelism (GOMAXPROCS), so expect ~1× on one core and ≥2× at 8
// shards on 4+ cores. The verify column counts sampled edge and vertex-out
// queries whose sharded result equals the per-partition reference exactly.
func shardedIngest(o Options) error {
	var base float64 // the dataset's single-shard throughput
	return gate{
		id:      "sharded",
		title:   "Extra: sharded ingest scaling (internal/shard)",
		columns: []string{"throughput", "speedup", "verify"},
		shards:  shardCounts,
		row: func(c *gateCase) ([]string, error) {
			eps, verified, total, err := shardedRun(c)
			if err != nil {
				return nil, err
			}
			if c.n == shardCounts[0] {
				base = eps
			}
			return []string{metrics.FormatEPS(eps), fmt.Sprintf("%.2f×", eps/base),
				fmt.Sprintf("%d/%d exact", verified, total)}, nil
		},
	}.run(o)
}

// shardedRun ingests the dataset into an n-shard summary with one producer
// per shard, then checks sampled queries against unsharded per-partition
// references. It returns the ingest throughput and the verification tally.
func shardedRun(c *gateCase) (eps float64, verified, total int, err error) {
	ds, n, cfg := c.ds, c.n, c.shardConfig()
	s, err := shard.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}

	// Partition up front with the summary's own hash so each producer owns
	// exactly one shard and the per-shard timestamp order is preserved.
	parts := make([][]stream.Edge, n)
	for _, e := range ds.Stream {
		i := s.ShardFor(e.S)
		parts[i] = append(parts[i], e)
	}

	start := time.Now()
	_ = produce(n, func(w int) error {
		for _, e := range parts[w] {
			s.Insert(e)
		}
		return nil
	})
	s.Finalize()
	eps = metrics.Throughput(int64(len(ds.Stream)), time.Since(start))

	// References: one unsharded core summary per partition. Exact
	// agreement is required — sharding must add nothing beyond core's own
	// estimation error.
	refs := make([]*core.Summary, n)
	for i := range refs {
		refs[i] = core.MustNew(cfg.Core)
		for _, e := range parts[i] {
			refs[i].Insert(e)
		}
		refs[i].Finalize()
	}

	span := ds.Stats.Span()
	seen := make(map[uint64]bool)
	for _, e := range ds.Stream {
		if seen[e.S] {
			continue
		}
		seen[e.S] = true
		ref := refs[s.ShardFor(e.S)]
		for _, win := range [][2]int64{{0, span}, {span / 4, span / 2}} {
			total += 2
			if s.EdgeWeight(e.S, e.D, win[0], win[1]) == ref.EdgeWeight(e.S, e.D, win[0], win[1]) {
				verified++
			}
			if s.VertexOut(e.S, win[0], win[1]) == ref.VertexOut(e.S, win[0], win[1]) {
				verified++
			}
		}
		if len(seen) >= 200 {
			break
		}
	}
	if verified != total {
		return eps, verified, total, fmt.Errorf(
			"%d/%d sampled queries diverged from per-partition reference", total-verified, total)
	}
	return eps, verified, total, nil
}
