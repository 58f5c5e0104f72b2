package bench

import (
	"fmt"
	"strconv"
	"time"

	"higgs/internal/core"
	"higgs/internal/metrics"
	"higgs/internal/stream"
	"higgs/internal/trq"
)

// rangeLengths is the paper's query-range sweep Lq ∈ {10^1 … 10^7} (§VI-A).
var rangeLengths = []int64{1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7}

// pathHops is the paper's path-length sweep (1–7 hops).
var pathHops = []int{1, 2, 3, 4, 5, 6, 7}

// subgraphSizes is the paper's subgraph-size sweep (50–350 edges).
var subgraphSizes = []int{50, 100, 150, 200, 250, 300, 350}

// midRange is the fixed range length for path/subgraph/parameter
// experiments (paper uses 10^5).
const midRange = int64(1e5)

// table2 is the dataset summary (paper Table II): one row per dataset and
// nobody measured, which is the shape of a gate.
var table2 = gate{
	id: "table2", title: "Table II: dataset summary",
	header:  "Table II: Summary of Datasets (synthetic stand-ins; DESIGN.md §4)",
	columns: []string{"nodes", "edges", "distinct-edges", "time-span", "max-out-deg", "max-in-deg"},
	row: func(c *gateCase) ([]string, error) {
		st := c.ds.Stats
		return []string{c.count("nodes", int64(st.Nodes)), c.count("edges", int64(st.Edges)),
			c.count("distinct_edges", int64(st.DistinctEdges)), c.count("span", st.Span()) + "s",
			c.count("max_out_deg", int64(st.MaxOutDegree)), c.count("max_in_deg", int64(st.MaxInDegree))}, nil
	},
}

// figures is the rest of the paper half of the registry, in presentation
// order.
var figures = []figure{
	// Fig. 10–13 (a–i): accuracy and latency of the four query kinds for
	// the six competitors, against range length, hop count and size.
	{id: "fig10", title: "Fig. 10: edge queries (AAE/ARE/latency vs Lq)",
		header:  "Fig. 10: Edge queries — AAE / ARE / latency vs Lq ({equeries} queries per point)",
		subject: "structure", subjects: Competitors, sweep: "Lq",
		points:  func(d draw) []point { return sweep(rangeLengths, lqLabel, d.edges) },
		columns: []string{"AAE", "ARE", "latency", "undercounts"}, row: oneSidedRow},
	{id: "fig11", title: "Fig. 11: vertex queries (AAE/ARE/latency vs Lq)",
		header:  "Fig. 11: Vertex queries — AAE / ARE / latency vs Lq ({vqueries} queries per point)",
		subject: "structure", subjects: Competitors, sweep: "Lq",
		points:  func(d draw) []point { return sweep(rangeLengths, lqLabel, d.vertices) },
		columns: []string{"AAE", "ARE", "latency", "undercounts"}, row: oneSidedRow},
	{id: "fig12", title: "Fig. 12: path queries (AAE/ARE/latency vs hops)",
		header:  "Fig. 12: Path queries — AAE / ARE / latency vs hops (Lq=1e5, {pqueries} queries per point)",
		subject: "structure", subjects: Competitors, sweep: "hops",
		points:  func(d draw) []point { return sweep(pathHops, strconv.Itoa, d.paths) },
		columns: []string{"AAE", "ARE", "latency"}, row: accuracyRow},
	{id: "fig13", title: "Fig. 13: subgraph queries (AAE/ARE/latency vs size)",
		header:  "Fig. 13: Subgraph queries — AAE / ARE / latency vs size (Lq=1e5, {squeries} queries per point)",
		subject: "structure", subjects: Competitors, sweep: "size",
		points:  func(d draw) []point { return sweep(subgraphSizes, strconv.Itoa, d.subgraphs) },
		columns: []string{"AAE", "ARE", "latency"}, row: accuracyRow},

	// Fig. 14/15: vertex accuracy and latency plus update cost over a
	// family of synthetic datasets.
	{id: "fig14", title: "Fig. 14: vertex queries & update cost by skewness",
		header:  "Fig. 14: Vertex queries and update cost by skewness ({skewnodes} nodes, {skewedges} edges)",
		family:  &family{"skew", []float64{1.5, 1.8, 2.1, 2.4, 2.7, 3.0}, stream.Skewed},
		subject: "structure", subjects: Competitors, points: func(d draw) []point { return []point{{qs: d.vertices(midRange)}} },
		columns: []string{"AAE", "latency", "space", "throughput"}, row: updateCostRow},
	{id: "fig15", title: "Fig. 15: vertex queries & update cost by variance",
		header:  "Fig. 15: Vertex queries and update cost by variance ({skewnodes} nodes, {skewedges} edges)",
		family:  &family{"variance", []float64{600, 800, 1000, 1200, 1400, 1600}, stream.Bursty},
		subject: "structure", subjects: Competitors, points: func(d draw) []point { return []point{{qs: d.vertices(midRange)}} },
		columns: []string{"AAE", "latency", "space", "throughput"}, row: updateCostRow},

	{id: "fig16", title: "Fig. 16: insertion throughput", header: "Fig. 16/17: Insertion throughput and latency",
		subject: "structure", subjects: Competitors,
		columns: []string{"throughput", "mean-latency"}, row: insertRow},
	{id: "fig17", title: "Fig. 17: insertion latency", twin: true},
	{id: "fig18", title: "Fig. 18: deletion throughput", header: "Fig. 18: Deletion throughput",
		subject: "structure", subjects: Competitors,
		columns: []string{"deletions", "throughput", "found"}, row: deleteRow},
	{id: "fig19", title: "Fig. 19: space cost", header: "Fig. 19: Space cost",
		subject: "structure", subjects: Competitors,
		columns: []string{"space", "bytes/edge"},
		row: func(c *figCase, _ int) []string {
			perEdge := float64(c.s.SpaceBytes()) / float64(c.ds.Stats.Edges)
			c.record("bytes_per_edge", perEdge)
			return []string{c.space(), fmt.Sprintf("%.1f", perEdge)}
		}},

	// Fig. 20: the HIGGS optimizations this repository keeps — multiple
	// mapping buckets (space) and overflow blocks (accuracy, leaf count).
	// The paper's third, per-level seal workers (§IV-C), is not implemented
	// (DESIGN.md §4).
	{id: "fig20", title: "Fig. 20: optimization ablations", header: "Fig. 20: HIGGS optimization ablations",
		subject: "variant", points: func(d draw) []point { return []point{{qs: d.edges(midRange)}} },
		subjects: variants{
			{"baseline", func(*core.Config) {}},
			{"-MMB (r=1)", func(c *core.Config) { c.Maps = 1 }},
			{"-OB", func(c *core.Config) { c.OverflowBlocks = false }}}.builders,
		columns: []string{"throughput", "space", "leaves", "edge-AAE(1e5)"},
		row: func(c *figCase, _ int) []string {
			return []string{c.throughput(), c.space(), c.leaves(), c.asked[0].aae()}
		}},
	{id: "fig21", title: "Fig. 21: parameter sweep (d1)", header: "Fig. 21: HIGGS parameter sweep — leaf matrix size d1",
		subject: "d1", points: func(d draw) []point { return []point{{qs: d.edges(midRange)}} },
		subjects: variants{
			{"4", func(c *core.Config) { c.D1 = 4 }},
			{"8", func(c *core.Config) { c.D1 = 8 }},
			{"16", func(c *core.Config) { c.D1 = 16 }},
			{"32", func(c *core.Config) { c.D1 = 32 }},
			{"64", func(c *core.Config) { c.D1 = 64 }}}.builders,
		columns: []string{"space", "latency(1e5)", "leaves", "layers", "util/expected"},
		row: func(c *figCase, _ int) []string {
			return []string{c.space(), c.asked[0].latency(), c.leaves(), c.layers(), c.util()}
		}},

	// Beyond the paper's Fig. 20/21: the fan-out θ (which fixes R, the
	// fingerprint bits promoted per level), the bucket depth b and the
	// mapping positions r — the measurements DESIGN.md's design notes cite.
	{id: "ablation", title: "Extra: HIGGS design-choice sweeps (θ / b / r)",
		header:  "Ablation: HIGGS design choices (θ / b / r sweeps)",
		subject: "variant", points: func(d draw) []point { return []point{{qs: d.edges(midRange)}} },
		subjects: variants{
			{"default (θ=4,b=3,r=4)", func(*core.Config) {}},
			{"θ=16 (R=2)", func(c *core.Config) { c.Theta = 16 }},
			{"b=1", func(c *core.Config) { c.B = 1 }},
			{"b=2", func(c *core.Config) { c.B = 2 }},
			{"b=5", func(c *core.Config) { c.B = 5 }},
			{"r=1", func(c *core.Config) { c.Maps = 1 }},
			{"r=2", func(c *core.Config) { c.Maps = 2 }},
			{"r=8", func(c *core.Config) { c.Maps = 8 }}}.builders,
		columns: []string{"layers", "leaves", "space", "throughput", "edge-AAE(1e5)", "latency(1e5)", "util/expected"},
		row: func(c *figCase, _ int) []string {
			a := &c.asked[0]
			return []string{c.layers(), c.leaves(), c.space(), c.throughput(), a.aae(), a.latency(), c.util()}
		}},
	// How the Horae family degrades as memory tightens — the sensitivity
	// study behind the DESIGN.md §4 memory-regime substitution.
	{id: "budget", title: "Extra: Horae accuracy vs GSS buffer budget",
		header:  "Sensitivity: Horae accuracy vs GSS buffer budget",
		subject: "budget(frac of cells)", subjects: horaeBudgets,
		points: func(d draw) []point {
			return []point{{"edge", d.edges(midRange)}, {"vertex", d.vertices(midRange)}}
		},
		columns: []string{"edge-AAE(1e5)", "vertex-AAE(1e5)", "space"},
		row: func(c *figCase, _ int) []string {
			return []string{c.asked[0].aae(), c.asked[1].aae(), c.space()}
		}},
}

func accuracyRow(c *figCase, i int) []string {
	a := &c.asked[i]
	return []string{a.aae(), a.are(), a.latency()}
}

func oneSidedRow(c *figCase, i int) []string {
	return append(accuracyRow(c, i), fmt.Sprint(c.asked[i].Undercounts()))
}

func updateCostRow(c *figCase, _ int) []string {
	return []string{c.asked[0].aae(), c.asked[0].latency(), c.space(), c.throughput()}
}

func insertRow(c *figCase, _ int) []string {
	return []string{c.throughput(), perOp(c.build, len(c.ds.Stream))}
}

// deleteRow replays a sample of the inserted items — a tenth of the stream,
// at most 50 000, at least one — as deletions.
func deleteRow(c *figCase, _ int) []string {
	n := max(1, min(len(c.ds.Stream)/10, 50000))
	step := max(1, len(c.ds.Stream)/n)
	var tried, found int64
	start := time.Now()
	for i := 0; i < len(c.ds.Stream) && tried < int64(n); i += step {
		tried++
		if c.s.(trq.Deleter).Delete(c.ds.Stream[i]) {
			found++
		}
	}
	eps := metrics.Throughput(tried, time.Since(start))
	return []string{c.count("deletions", tried), metrics.FormatEPS(eps), c.count("found", found) + fmt.Sprintf("/%d", tried)}
}

// draw hands a figure's points function what it draws questions from; the
// workload's generator is shared, so the order of the draws is part of the
// figure.
type draw struct {
	o     Options
	w     *trq.Workload
	truth truth
}

func (d draw) question(ask func(trq.Summary) int64) question { return question{ask, ask(d.truth)} }

func (d draw) edges(lq int64) (out []question) {
	for _, q := range d.w.EdgeQueries(d.o.EdgeQueries, lq) {
		out = append(out, d.question(func(s trq.Summary) int64 { return s.EdgeWeight(q.S, q.D, q.Ts, q.Te) }))
	}
	return out
}

func (d draw) vertices(lq int64) (out []question) {
	for _, q := range d.w.VertexQueries(d.o.VertexQueries, lq) {
		out = append(out, d.question(func(s trq.Summary) int64 {
			if q.Out {
				return s.VertexOut(q.V, q.Ts, q.Te)
			}
			return s.VertexIn(q.V, q.Ts, q.Te)
		}))
	}
	return out
}

func (d draw) paths(hops int) (out []question) {
	for _, q := range d.w.PathQueries(d.o.PathQueries, hops, midRange) {
		out = append(out, d.question(func(s trq.Summary) int64 { return trq.PathWeight(s, q.Path, q.Ts, q.Te) }))
	}
	return out
}

func (d draw) subgraphs(size int) (out []question) {
	for _, q := range d.w.SubgraphQueries(d.o.SubgraphQueries, size, midRange) {
		out = append(out, d.question(func(s trq.Summary) int64 { return trq.SubgraphWeight(s, q.Edges, q.Ts, q.Te) }))
	}
	return out
}

// sweep draws one labelled point per value, in order.
func sweep[T any](values []T, label func(T) string, draw func(T) []question) []point {
	out := make([]point, len(values))
	for i, v := range values {
		out[i] = point{label(v), draw(v)}
	}
	return out
}

// lqLabel prints a power of ten as "1e<zeros>".
func lqLabel(lq int64) string { return fmt.Sprintf("1e%d", len(fmt.Sprint(lq))-1) }

// variants makes a figure's subjects of named edits of core.DefaultConfig.
type variants []struct {
	name string
	edit func(*core.Config)
}

func (vs variants) builders(_ *Dataset, seed uint64) []Builder {
	out := make([]Builder, len(vs))
	for i, v := range vs {
		out[i] = Builder{v.name, func() (trq.Summary, error) {
			cfg := core.DefaultConfig()
			v.edit(&cfg)
			cfg.Seed = seed
			return core.New(cfg)
		}}
	}
	return out
}
