package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"higgs/internal/analysis"
	"higgs/internal/core"
	"higgs/internal/exact"
	"higgs/internal/metrics"
	"higgs/internal/stream"
	"higgs/internal/trq"
)

// figure is an experiment of the paper's evaluation (§VI) shaped as one
// table row per (dataset, subject, sweep point) — fig10–21 and the two
// sensitivity extras. A figure states only what is its own: titles,
// columns, who is measured, what they are asked and how a row reads. The
// driver (run) owns what they all share, gate.run's plumbing plus the one
// build → replay → ask → score → stopwatch loop of the package, and records
// every point's accuracy as "<dataset>_<subject>_<point>_<what>"; a row
// records the other deterministic cells it prints (space, leaves, …)
// through its figCase. Latency and throughput are printed, never recorded.
type figure struct {
	id     string
	title  string // registry title (higgsbench -list)
	header string // printed title; "{flag}" stands for that option's value
	twin   bool   // another id for the figure above it, whose run it shares: "all" skips it

	family   *family                                  // nil: the selected presets
	subject  string                                   // subject column
	subjects func(ds *Dataset, seed uint64) []Builder // each is built once per dataset
	sweep    string                                   // point column; "": the points share one row
	points   func(d draw) []point
	columns  []string // after the dataset, subject and point columns
	row      func(c *figCase, i int) []string
}

// family is a sweep of synthetic datasets standing in for the presets
// (fig14/15): one stream per value, named "<param>=<value>".
type family struct {
	param  string
	values []float64
	gen    func(v float64, nodes, edges int, seed int64) (stream.Stream, error)
}

// question is one query of a workload: how to ask it, and the exact answer
// — what the dataset's truth said when asked the same, once per dataset and
// outside the stopwatch.
type question struct {
	ask  func(s trq.Summary) int64
	want int64
}

// truth makes the exact store a summary a question can be asked of.
type truth struct{ *exact.Store }

func (truth) Name() string      { return "exact" }
func (truth) SpaceBytes() int64 { return 0 }

// point is one sweep point: its label (printed, and part of the metric
// name) and its questions.
type point struct {
	label string
	qs    []question
}

// asked is what one subject answered at one point.
type asked struct {
	metrics.Accuracy
	took time.Duration
}

func (a *asked) aae() string     { return metrics.FormatFloat(a.AAE()) }
func (a *asked) are() string     { return metrics.FormatFloat(a.ARE()) }
func (a *asked) latency() string { return perOp(a.took, a.N()) }

// figCase is one built subject on one dataset with its answers.
type figCase struct {
	gateCase
	s     trq.Summary
	build time.Duration // replay + Finalize
	asked []asked       // one per point
}

func (c *figCase) space() string {
	n := c.s.SpaceBytes()
	c.record("space", float64(n))
	return metrics.FormatBytes(n)
}

func (c *figCase) throughput() string {
	return metrics.FormatEPS(metrics.Throughput(int64(len(c.ds.Stream)), c.build))
}

// The HIGGS-variant figures read the tree's shape off the subject.
func (c *figCase) stats() core.Stats { return c.s.(*core.Summary).Stats() }
func (c *figCase) leaves() string    { return c.count("leaves", int64(c.stats().Leaves)) }
func (c *figCase) layers() string    { return c.count("layers", int64(c.stats().Layers)) }

// util is the measured mean leaf utilization next to the paper's E(α)
// (Eq. 6–7) for the subject's d1, b and r² candidate buckets.
func (c *figCase) util() string {
	cfg, got := c.s.(*core.Summary).Config(), c.stats().AvgLeafUtil
	c.record("util", got)
	return fmt.Sprintf("%.2f/%.2f", got, analysis.ExpectedUtilization(cfg.D1, cfg.B, cfg.Maps*cfg.Maps))
}

func (f figure) experiment() Experiment { return Experiment{f.id, f.title, f.run, f.twin} }

func (f figure) run(o Options) error {
	cols := []string{"dataset", f.subject}
	if f.family != nil {
		cols[0] = f.family.param
	}
	if f.sweep != "" {
		cols = append(cols, f.sweep)
	}
	return sheet(o, f.id, f.header, f.family, append(cols, f.columns...), func(o Options, ds *Dataset, t *metrics.Table) error {
		var points []point
		if f.points != nil {
			points = f.points(draw{o, trq.NewWorkload(ds.Truth, o.Seed), truth{ds.Truth}})
		}
		for _, b := range f.subjects(ds, uint64(o.Seed)) {
			s, err := b.New()
			if err != nil {
				return fmt.Errorf("build %s: %w", b.Name, err)
			}
			start := time.Now()
			for _, e := range ds.Stream {
				s.Insert(e)
			}
			trq.Finalize(s)
			c := &figCase{gateCase{ds: ds, seed: o.Seed, o: o, key: ds.Name + "_" + b.Name}, s, time.Since(start), make([]asked, len(points))}
			// A family member "skew=1.5" prints as 1.5 under the "skew" header.
			lead := []string{strings.TrimPrefix(ds.Name, cols[0]+"="), b.Name}
			for i, p := range points {
				// An unlabelled point adds nothing to the metric name.
				a, key := &c.asked[i], strings.TrimSuffix(c.key+"_"+p.label, "_")
				start := time.Now()
				for _, q := range p.qs {
					a.Observe(q.ask(c.s), q.want)
				}
				a.took = time.Since(start)
				o.record(key+"_aae", a.AAE())
				o.record(key+"_are", a.ARE())
				o.record(key+"_undercounts", float64(a.Undercounts()))
			}
			rows := 1
			if f.sweep != "" {
				rows = len(points)
			}
			for i := range rows {
				cells := slices.Clone(lead)
				if f.sweep != "" {
					cells = append(cells, points[i].label)
				}
				t.AddRow(append(cells, f.row(c, i)...)...)
			}
		}
		return nil
	})
}

// perOp formats elapsed/n as a per-operation latency.
func perOp(elapsed time.Duration, n int) string {
	if n == 0 {
		return "-"
	}
	return (elapsed / time.Duration(n)).String()
}
