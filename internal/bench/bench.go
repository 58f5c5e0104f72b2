// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (§VI). A figure builds its
// subjects — for most, the six competitors (HIGGS, PGSS, Horae, Horae-cpt,
// AuxoTime, AuxoTime-cpt) — on the selected datasets, replays the stream,
// runs the figure's workload, prints one table row per plotted point and
// records its deterministic cells; the CI gates are the package's other
// kind of experiment. DESIGN.md §5 maps experiment IDs to paper figures.
package bench

import (
	"fmt"
	"io"
	"iter"
	"math"
	"os"

	"higgs/internal/auxo"
	"higgs/internal/auxotime"
	"higgs/internal/core"
	"higgs/internal/exact"
	"higgs/internal/gss"
	"higgs/internal/horae"
	"higgs/internal/pgss"
	"higgs/internal/stream"
	"higgs/internal/trq"
)

// Dataset bundles a stream with its ground truth and summary statistics.
type Dataset struct {
	Name   string
	Stream stream.Stream
	Truth  *exact.Store
	Stats  stream.Stats
}

// LoadPreset materializes one of the synthetic stand-ins for the paper's
// datasets at the given scale.
func LoadPreset(p stream.Preset, scale float64) (*Dataset, error) {
	s, err := stream.Load(p, scale)
	if err != nil {
		return nil, err
	}
	return NewDataset(string(p), s), nil
}

// NewDataset wraps a stream with its exact store and statistics.
func NewDataset(name string, s stream.Stream) *Dataset {
	return &Dataset{
		Name:   name,
		Stream: s,
		Truth:  exact.FromStream(s),
		Stats:  stream.Summarize(s),
	}
}

// Options tunes experiment cost. The defaults keep the full suite runnable
// on a laptop; the paper's original volumes (100K edge queries, 5M-edge
// synthetic sets) are reachable by raising Scale and the query counts.
type Options struct {
	Scale           float64   // preset scale factor (default 0.5)
	EdgeQueries     int       // edge queries per range length (default 2000)
	VertexQueries   int       // vertex queries per range length (default 400)
	PathQueries     int       // path queries per hop count (default 200)
	SubgraphQueries int       // subgraph queries per size (default 50)
	SkewNodes       int       // Fig. 14/15 synthetic universe (default 20000)
	SkewEdges       int       // Fig. 14/15 synthetic volume (default 300000)
	Seed            int64     // workload seed
	Out             io.Writer // defaults to os.Stdout
	Presets         []stream.Preset

	// Metrics, when non-nil, collects each experiment's headline numbers
	// under stable names (a gate's "<dataset>_s<shards>_<what>", a figure's
	// "<dataset>_<subject>_<point>_<what>"), so cmd/higgsbench can persist
	// them in the -json artifact.
	Metrics map[string]float64
}

// record stores a headline metric when the caller asked for them.
func (o Options) record(name string, v float64) {
	if o.Metrics != nil {
		o.Metrics[name] = v
	}
}

// DefaultOptions returns laptop-scale settings.
func DefaultOptions() Options {
	return Options{
		Scale:           0.5,
		EdgeQueries:     2000,
		VertexQueries:   400,
		PathQueries:     200,
		SubgraphQueries: 50,
		SkewNodes:       20000,
		SkewEdges:       300000,
		Seed:            42,
		Out:             os.Stdout,
		Presets:         stream.Presets,
	}
}

func (o *Options) fill() {
	d := DefaultOptions()
	if o.Scale <= 0 {
		o.Scale = d.Scale
	}
	if o.EdgeQueries <= 0 {
		o.EdgeQueries = d.EdgeQueries
	}
	if o.VertexQueries <= 0 {
		o.VertexQueries = d.VertexQueries
	}
	if o.PathQueries <= 0 {
		o.PathQueries = d.PathQueries
	}
	if o.SubgraphQueries <= 0 {
		o.SubgraphQueries = d.SubgraphQueries
	}
	if o.SkewNodes <= 0 {
		o.SkewNodes = d.SkewNodes
	}
	if o.SkewEdges <= 0 {
		o.SkewEdges = d.SkewEdges
	}
	if o.Out == nil {
		o.Out = d.Out
	}
	if len(o.Presets) == 0 {
		o.Presets = d.Presets
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
}

// Builder constructs one competitor for a dataset.
type Builder struct {
	Name string
	New  func() (trq.Summary, error)
}

// layerDim sizes a Horae/AuxoTime layer the way the originals run in the
// paper's memory budget: total layer space is a small multiple of the
// stream size, so each layer's matrix is ~4–8× overloaded and the excess
// spills into the fingerprint-keyed buffer — the regime in which the
// baselines' published accuracy/latency costs appear.
func layerDim(edges int) uint32 {
	target := float64(edges) / 6
	d := uint32(64)
	for float64(d)*float64(d) < target && d < 1024 {
		d <<= 1
	}
	return d
}

// zRatio returns the paper's |E|/Z load ratio for a dataset (Table II edge
// counts against Z = d1·2^F1 = 2^23). Scaling experiments down only
// preserves the paper's accuracy regime if this ratio is preserved: with
// the original Z kept at laptop-scale streams every structure answers
// nearly exactly and the accuracy separation the paper plots disappears.
// Synthetic families (Fig. 14/15: 5M edges) use their paper ratio too.
func zRatio(name string) float64 {
	switch stream.Preset(name) {
	case stream.Lkml:
		return 1_096_440.0 / (1 << 23)
	case stream.WikiTalk:
		return 24_981_163.0 / (1 << 23)
	case stream.StackOverflow:
		return 63_497_050.0 / (1 << 23)
	default:
		return 5_000_000.0 / (1 << 23)
	}
}

// scaledFBits returns the fingerprint width giving a structure with
// address space d a total hash range of z, clamped to [4, 19].
func scaledFBits(z float64, d uint32) uint {
	bits := math.Round(math.Log2(z / float64(d)))
	switch {
	case bits < 4:
		return 4
	case bits > 19:
		return 19
	default:
		return uint(bits)
	}
}

// layers sizes the dyadic GSS layers Horae runs on a dataset: the level
// count, the layer configuration (buffer capped at 25% of the matrix, the
// memory-budget regime of the original deployments, DESIGN.md §4) and the
// hash range Z every structure is aligned to (paper: "the Z value of HIGGS
// aligns with those of the baselines"), scaled to preserve the paper's
// |E|/Z ratio.
func layers(ds *Dataset) (maxLevel int, layer gss.Config, z float64) {
	maxLevel = max(1, trq.LevelsForSpan(ds.Stats.Span()+1, 25))
	z = float64(ds.Stats.Edges) / zRatio(ds.Name)
	d := layerDim(ds.Stats.Edges)
	return maxLevel, gss.Config{D: d, FBits: scaledFBits(z, d), Maps: 4, MaxBuffer: int(d) * int(d) / 4}, z
}

// Competitors returns the paper's six competitors (§VI-A) sized for the
// dataset following each baseline paper's guidance.
func Competitors(ds *Dataset, seed uint64) []Builder {
	maxLevel, gssCfg, z := layers(ds)
	higgsF := scaledFBits(z, core.DefaultConfig().D1)
	auxoD := max(64, gssCfg.D/2)
	auxoCfg := auxo.Config{D: auxoD, FBits: scaledFBits(z, auxoD), Maps: 4}
	// PGSS has no fingerprints: its collision domain is the d×d bucket
	// grid itself, so d² plays the role of Z. Its per-bucket granularity
	// machinery makes buckets expensive, which in the original's memory
	// budget buys ~8× fewer buckets than raw counters would get.
	pgssD := uint32(64)
	for float64(pgssD)*float64(pgssD) < z/8 && pgssD < 2048 {
		pgssD <<= 1
	}

	return []Builder{
		{Name: "HIGGS", New: func() (trq.Summary, error) {
			cfg := core.DefaultConfig()
			cfg.F1 = higgsF
			cfg.Seed = seed
			return core.New(cfg)
		}},
		{Name: "PGSS", New: func() (trq.Summary, error) {
			return pgss.New(pgss.Config{Matrices: 2, D: pgssD, Seed: seed})
		}},
		{Name: "Horae", New: func() (trq.Summary, error) {
			return horae.New(horae.Config{MaxLevel: maxLevel, Layer: gssCfg, Seed: seed})
		}},
		{Name: "Horae-cpt", New: func() (trq.Summary, error) {
			return horae.New(horae.Config{MaxLevel: maxLevel, Compact: true, Layer: gssCfg, Seed: seed})
		}},
		{Name: "AuxoTime", New: func() (trq.Summary, error) {
			return auxotime.New(auxotime.Config{MaxLevel: maxLevel, Layer: auxoCfg, Seed: seed})
		}},
		{Name: "AuxoTime-cpt", New: func() (trq.Summary, error) {
			return auxotime.New(auxotime.Config{MaxLevel: maxLevel, Compact: true, Layer: auxoCfg, Seed: seed})
		}},
	}
}

// horaeBudgets is the buffer-budget sensitivity experiment's subjects: a
// Horae per per-layer GSS buffer budget of frac·d² entries (0 = unbounded).
func horaeBudgets(ds *Dataset, seed uint64) []Builder {
	maxLevel, layer, _ := layers(ds)
	var out []Builder
	for _, frac := range []float64{0, 0.25, 1.0, 4.0} {
		name := fmt.Sprintf("%.2f", frac)
		if frac == 0 {
			name = "unbounded"
		}
		layer.MaxBuffer = int(float64(layer.D) * float64(layer.D) * frac)
		cfg := horae.Config{MaxLevel: maxLevel, Layer: layer, Seed: seed}
		out = append(out, Builder{name, func() (trq.Summary, error) { return horae.New(cfg) }})
	}
	return out
}

// datasets yields the run's datasets one at a time, so a sweep holds one:
// the presets the options select, or the members of a synthetic family.
func (o Options) datasets(fam *family) iter.Seq2[*Dataset, error] {
	return func(yield func(*Dataset, error) bool) {
		if fam == nil {
			for _, p := range o.Presets {
				if !yield(LoadPreset(p, o.Scale)) {
					return
				}
			}
			return
		}
		for _, v := range fam.values {
			st, err := fam.gen(v, o.SkewNodes, o.SkewEdges, o.Seed)
			if err != nil {
				yield(nil, err)
				return
			}
			if !yield(NewDataset(fmt.Sprintf("%s=%g", fam.param, v), st), nil) {
				return
			}
		}
	}
}
