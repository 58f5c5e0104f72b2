package bench

import (
	"fmt"
	"sort"

	"higgs/internal/gmatrix"
	"higgs/internal/metrics"
)

// reverseGate evaluates gMatrix (related work §II, [24]): the reverse
// heavy-hitter query that reversible hashing buys, scored as precision and
// recall against the exact heavy-source set, alongside the extra forward
// error the paper attributes to the scheme.
var reverseGate = gate{
	id:      "reverse",
	title:   "Extra: gMatrix reverse heavy-hitter queries",
	columns: []string{"threshold", "true-heavy", "reported", "precision", "recall", "fwd-edge-AAE"},
	row: func(c *gateCase) ([]string, error) {
		ds, o := c.ds, c.o
		cfg := gmatrix.Config{
			Moduli:    []uint64{251, 253, 256}, // pairwise coprime: 251 prime, 253=11·23, 256=2^8
			MaxVertex: 16_000_000,              // below the 16.26M moduli product
		}
		g, err := gmatrix.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("gmatrix: %w", err)
		}
		for _, e := range ds.Stream {
			g.Insert(e)
		}
		first, last := ds.Truth.Span()
		// Exact heavy sources.
		trueWeight := map[uint64]int64{}
		for _, v := range ds.Truth.Vertices() {
			trueWeight[v] = ds.Truth.VertexOut(v, first, last)
		}
		// Reverse queries are only meaningful above the residue-row noise
		// floor (≈ total/d per row — the "additional errors" the paper
		// attributes to the scheme). Ask for sources 4× above it.
		var total int64
		for _, w := range trueWeight {
			total += w
		}
		threshold := 4 * total / int64(cfg.Moduli[0])
		if threshold < 2 {
			threshold = 2
		}
		trueHeavy := map[uint64]bool{}
		for v, w := range trueWeight {
			if w >= threshold {
				trueHeavy[v] = true
			}
		}
		reported, err := g.HeavySources(threshold, 1<<20)
		if err != nil {
			return []string{fmt.Sprint(threshold), fmt.Sprint(len(trueHeavy)), "budget exceeded", "-", "-", "-"}, nil
		}
		hit := 0
		for _, h := range reported {
			if trueHeavy[h.V] {
				hit++
			}
		}
		precision, recall := 0.0, 0.0
		if len(reported) > 0 {
			precision = float64(hit) / float64(len(reported))
		}
		if len(trueHeavy) > 0 {
			recall = float64(hit) / float64(len(trueHeavy))
		}
		// Forward accuracy for context (the "additional errors" remark).
		var acc metrics.Accuracy
		w := newEdgeSample(ds, o.Seed, o.EdgeQueries)
		for _, q := range w {
			acc.Observe(g.EdgeWeightAll(q[0], q[1]), ds.Truth.EdgeWeight(q[0], q[1], first, last))
		}
		return []string{fmt.Sprint(threshold), fmt.Sprint(len(trueHeavy)),
			fmt.Sprint(len(reported)),
			fmt.Sprintf("%.2f", precision), fmt.Sprintf("%.2f", recall),
			metrics.FormatFloat(acc.AAE())}, nil
	},
}

// newEdgeSample draws n distinct-edge pairs deterministically.
func newEdgeSample(ds *Dataset, seed int64, n int) [][2]uint64 {
	edges := ds.Truth.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	if n > len(edges) {
		n = len(edges)
	}
	out := make([][2]uint64, 0, n)
	step := len(edges) / n
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(edges) && len(out) < n; i += step {
		out = append(out, edges[i])
	}
	return out
}
