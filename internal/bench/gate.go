package bench

import (
	"fmt"
	"sync/atomic"

	"higgs/internal/metrics"
	"higgs/internal/query"
	"higgs/internal/shard"
)

// shardCounts is the sweep every gate (and the sharded experiment) runs.
var shardCounts = []int{1, 2, 4, 8}

// gate is an experiment shaped as one table row per (dataset, shard
// count) — the eight CI gates and the sharded sweep. A gate states only
// what is its own: titles, columns and the row. The driver (run) owns
// what they all share: option defaults, the sweep, the "bench: <id> <n>:"
// error prefix, the leading table cells, and the "<dataset>_s<n>_<what>"
// metric names CI's BENCH_<id>.json artifacts are keyed by.
type gate struct {
	id     string
	title  string // registry title (higgsbench -list)
	header string // printed title, when it differs from the registry's

	columns []string // after "dataset" and "shards"
	shards  []int    // nil: one row per dataset and no shards column
	row     func(c *gateCase) (cells []string, err error)

	// after, when non-nil, runs once per dataset after its rows; its case
	// has n == 0 and records "<dataset>_<what>".
	after func(c *gateCase) error
}

// gateCase is one cell of a gate's sweep.
type gateCase struct {
	ds   *Dataset
	n    int // shard count
	seed int64
	o    Options
	key  string // metric-name prefix
}

// record stores a headline metric under the case's stable name.
func (c *gateCase) record(what string, v float64) { c.o.record(c.key+"_"+what, v) }

// shardConfig is the summary configuration of the case. Every run of a
// case builds from it — identical seeds partition identically, the
// precondition for byte comparison.
func (c *gateCase) shardConfig() shard.Config { return shardConfig(c.n, uint64(c.seed)) }

func shardConfig(n int, seed uint64) shard.Config {
	cfg := shard.DefaultConfig()
	cfg.Shards = n
	cfg.Core.Seed = seed
	return cfg
}

func (g gate) experiment() Experiment { return Experiment{g.id, g.title, g.run} }

func (g gate) run(o Options) error {
	o.fill()
	header := g.header
	if header == "" {
		header = g.title
	}
	fmt.Fprintf(o.Out, "== %s ==\n", header)
	lead, shards := []string{"dataset", "shards"}, g.shards
	if shards == nil {
		lead, shards = lead[:1], []int{0}
	}
	t := metrics.NewTable(append(lead, g.columns...)...)
	dss, err := o.datasets()
	if err != nil {
		return err
	}
	for _, ds := range dss {
		for _, n := range shards {
			c := &gateCase{ds: ds, n: n, seed: o.Seed, o: o, key: ds.Name}
			cells, where := []string{ds.Name}, g.id
			if n > 0 {
				c.key += fmt.Sprintf("_s%d", n)
				cells = append(cells, fmt.Sprint(n))
				where += fmt.Sprintf(" %d", n)
			}
			row, err := g.row(c)
			if err != nil {
				return fmt.Errorf("bench: %s: %w", where, err)
			}
			t.AddRow(append(cells, row...)...)
		}
		if g.after != nil {
			if err := g.after(&gateCase{ds: ds, seed: o.Seed, o: o, key: ds.Name}); err != nil {
				return fmt.Errorf("bench: %s: %w", g.id, err)
			}
		}
	}
	return t.Render(o.Out)
}

// countingProber counts ProbeShard calls on their way to the summary.
// shard.Summary.ProbeShard acquires its shard's read lock exactly once per
// call, so the count across a batch is that batch's shard read-lock
// acquisitions. Embedding keeps it a query.Prober and an rcache.Backend.
type countingProber struct {
	*shard.Summary
	calls atomic.Int64
}

func (c *countingProber) ProbeShard(i int, probes []query.Probe, out []int64) {
	c.calls.Add(1)
	c.Summary.ProbeShard(i, probes, out)
}
