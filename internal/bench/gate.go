package bench

import (
	"fmt"
	"strings"
	"sync/atomic"

	"higgs/internal/metrics"
	"higgs/internal/query"
	"higgs/internal/shard"
)

// shardCounts is the sweep every gate (and the sharded experiment) runs.
var shardCounts = []int{1, 2, 4, 8}

// gate is an experiment shaped as one table row per (dataset, shard
// count) — the seven CI gates, the sharded sweep and the paper's Table II.
// A gate states only what is its own: titles, columns and the row. The
// driver (run) owns what they all share: sheet's plumbing, the sweep, the
// "<n> shards:" error prefix, the leading table cells, and the
// "<dataset>_s<n>_<what>" metric names CI's BENCH_<id>.json artifacts are
// keyed by.
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

// count prints a deterministic count and records it.
func (c *gateCase) count(what string, n int64) string {
	c.record(what, float64(n))
	return fmt.Sprint(n)
}

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

func (g gate) experiment() Experiment { return Experiment{ID: g.id, Title: g.title, Run: g.run} }

func (g gate) run(o Options) error {
	header := g.header
	if header == "" {
		header = g.title
	}
	lead, shards := []string{"dataset", "shards"}, g.shards
	if shards == nil {
		lead, shards = lead[:1], []int{0}
	}
	return sheet(o, g.id, header, nil, append(lead, g.columns...), func(o Options, ds *Dataset, t *metrics.Table) error {
		for _, n := range shards {
			c := &gateCase{ds: ds, n: n, seed: o.Seed, o: o, key: ds.Name}
			cells := []string{ds.Name}
			if n > 0 {
				c.key += fmt.Sprintf("_s%d", n)
				cells = append(cells, fmt.Sprint(n))
			}
			row, err := g.row(c)
			if err != nil {
				if n > 0 {
					err = fmt.Errorf("%d shards: %w", n, err)
				}
				return err
			}
			t.AddRow(append(cells, row...)...)
		}
		if g.after != nil {
			return g.after(&gateCase{ds: ds, seed: o.Seed, o: o, key: ds.Name})
		}
		return nil
	})
}

// sheet is the plumbing gate.run and figure.run share: option defaults,
// the title line, the table, the dataset loop, the "bench: <id>:" error
// prefix and the render.
func sheet(o Options, id, header string, fam *family, columns []string,
	each func(o Options, ds *Dataset, t *metrics.Table) error) error {
	o.fill()
	fmt.Fprintf(o.Out, "== %s ==\n", strings.NewReplacer(
		"{equeries}", fmt.Sprint(o.EdgeQueries), "{vqueries}", fmt.Sprint(o.VertexQueries),
		"{pqueries}", fmt.Sprint(o.PathQueries), "{squeries}", fmt.Sprint(o.SubgraphQueries),
		"{skewnodes}", fmt.Sprint(o.SkewNodes), "{skewedges}", fmt.Sprint(o.SkewEdges)).Replace(header))
	t := metrics.NewTable(columns...)
	for ds, err := range o.datasets(fam) {
		if err == nil {
			err = each(o, ds, t)
		}
		if err != nil {
			return fmt.Errorf("bench: %s: %w", id, err)
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
