package bench

import (
	"fmt"
	"testing"
	"time"

	"higgs/internal/core"
	"higgs/internal/metrics"
	"higgs/internal/query"
	"higgs/internal/shard"
)

// allocsInsertRuns is the AllocsPerRun sample size for the insert/probe
// hot loops: large enough that a once-per-few-calls allocation (a slab
// growth, a map rehash) shows up as a fractional average instead of
// rounding to zero.
const allocsInsertRuns = 1000

// allocsGate is the hot-path allocation gate. For each dataset it
// measures, via testing.AllocsPerRun:
//
//   - steady-state core insert — re-inserting an existing (s, d, t) item
//     into a stream-warmed summary, the merge path every repeated edge
//     takes — which must be 0 allocs/op (the arena + fill-prefix layout
//     exists for this), and
//   - a single-shard edge probe through shard.ProbeShard, the batch
//     executor's per-shard hot loop, which must also be 0 allocs/op.
//
// A non-zero average is a hard failure, not a table footnote: the gate
// exists to stop allocation regressions from reaching main. The third
// column measures single-shard insert throughput (full stream + Finalize,
// best of three runs); it is recorded in the artifact, not gated — ingest
// speed is held end to end by BENCHMARK.json's ingest-window workload.
var allocsGate = gate{
	id:      "allocs",
	title:   "Extra: hot-path allocation gate — 0 allocs/op + insert throughput",
	header:  "Extra: hot-path allocation gate (internal/core, internal/shard)",
	columns: []string{"steady insert", "edge probe", "insert eps", "verdict"},
	row: func(c *gateCase) ([]string, error) {
		insertAllocs, err := steadyInsertAllocs(c.ds, uint64(c.seed))
		if err != nil {
			return nil, err
		}
		probeAllocs, err := edgeProbeAllocs(c.ds, uint64(c.seed))
		if err != nil {
			return nil, err
		}
		eps, err := singleShardInsertEPS(c.ds, uint64(c.seed))
		if err != nil {
			return nil, err
		}
		c.record("steady_insert_allocs", insertAllocs)
		c.record("edge_probe_allocs", probeAllocs)
		c.record("insert_eps", eps)
		if insertAllocs != 0 {
			return nil, fmt.Errorf("%s: steady-state insert allocates %.2f allocs/op, want 0", c.ds.Name, insertAllocs)
		}
		if probeAllocs != 0 {
			return nil, fmt.Errorf("%s: single-shard edge probe allocates %.2f allocs/op, want 0", c.ds.Name, probeAllocs)
		}
		return []string{
			fmt.Sprintf("%.2f allocs/op", insertAllocs),
			fmt.Sprintf("%.2f allocs/op", probeAllocs),
			metrics.FormatEPS(eps), "0 allocs/op"}, nil
	},
}

// steadyInsertAllocs warms a single core summary with the full stream and
// measures re-insertion of the stream's last edge — a merge into an
// existing leaf slot, the steady-state ingest path.
func steadyInsertAllocs(ds *Dataset, seed uint64) (float64, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	s, err := core.New(cfg)
	if err != nil {
		return 0, err
	}
	for _, e := range ds.Stream {
		s.Insert(e)
	}
	e := ds.Stream[len(ds.Stream)-1]
	s.Insert(e)
	return testing.AllocsPerRun(allocsInsertRuns, func() { s.Insert(e) }), nil
}

// edgeProbeAllocs warms a single-shard sharded summary and measures one
// edge probe through ProbeShard — the per-shard execution loop of the
// batch query API.
func edgeProbeAllocs(ds *Dataset, seed uint64) (float64, error) {
	s, err := shard.New(shardConfig(1, seed))
	if err != nil {
		return 0, err
	}
	defer s.Close()
	for _, e := range ds.Stream {
		s.Insert(e)
	}
	s.Finalize()
	e := ds.Stream[0]
	probes := []query.Probe{{Op: query.OpEdge, S: e.S, D: e.D, Ts: 0, Te: ds.Stats.Span() + 1}}
	out := make([]int64, 1)
	sh := s.ShardFor(e.S)
	s.ProbeShard(sh, probes, out)
	return testing.AllocsPerRun(allocsInsertRuns, func() { s.ProbeShard(sh, probes, out) }), nil
}

// singleShardInsertEPS replays the full stream into a fresh core summary
// and finalizes it, best of three — the single-tree ingest throughput.
func singleShardInsertEPS(ds *Dataset, seed uint64) (float64, error) {
	best := 0.0
	for run := 0; run < 3; run++ {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		s, err := core.New(cfg)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for _, e := range ds.Stream {
			s.Insert(e)
		}
		s.Finalize()
		if eps := metrics.Throughput(int64(len(ds.Stream)), time.Since(start)); eps > best {
			best = eps
		}
	}
	return best, nil
}
