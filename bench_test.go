// Benchmarks regenerating the paper's evaluation (one per table/figure, as
// indexed in DESIGN.md §5), plus per-structure micro-benchmarks for the
// latency-oriented figures. Accuracy and space numbers are emitted through
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces the rows;
// `cmd/higgsbench` prints the same data as full tables at larger scale.
package higgs_test

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"higgs/internal/bench"
	"higgs/internal/core"
	"higgs/internal/metrics"
	"higgs/internal/stream"
	"higgs/internal/trq"
)

// benchOptions keeps in-process figure benchmarks affordable; higgsbench
// runs the same experiments at full scale.
func benchOptions() bench.Options {
	return bench.Options{
		Scale:           0.05,
		EdgeQueries:     100,
		VertexQueries:   40,
		PathQueries:     20,
		SubgraphQueries: 10,
		SkewNodes:       2000,
		SkewEdges:       20000,
		Seed:            7,
		Out:             io.Discard,
		Presets:         []stream.Preset{stream.Lkml},
	}
}

var (
	dsOnce    sync.Once
	benchDS   *bench.Dataset
	buildMu   sync.Mutex
	buildOnce = map[string]trq.Summary{}
)

// sharedDataset is the stream shared by the micro-benchmarks (~35K edges).
func sharedDataset(b *testing.B) *bench.Dataset {
	b.Helper()
	dsOnce.Do(func() {
		ds, err := bench.LoadPreset(stream.Lkml, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		benchDS = ds
	})
	return benchDS
}

// builtSummary returns a cached, fully loaded competitor. Callers must not
// mutate it (deletion benchmarks build their own copies).
func builtSummary(b *testing.B, name string) trq.Summary {
	b.Helper()
	ds := sharedDataset(b)
	buildMu.Lock()
	defer buildMu.Unlock()
	if s, ok := buildOnce[name]; ok {
		return s
	}
	for _, bl := range bench.Competitors(ds, 7) {
		if bl.Name != name {
			continue
		}
		s, err := bl.New()
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range ds.Stream {
			s.Insert(e)
		}
		trq.Finalize(s)
		buildOnce[name] = s
		return s
	}
	b.Fatalf("unknown competitor %q", name)
	return nil
}

var competitorNames = []string{"HIGGS", "PGSS", "Horae", "Horae-cpt", "AuxoTime", "AuxoTime-cpt"}

// BenchmarkTable2Datasets regenerates Table II (dataset synthesis +
// statistics).
func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Run("table2", benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16InsertThroughput measures per-item insertion cost per
// structure (Fig. 16 throughput ⇔ 1/latency of Fig. 17).
func BenchmarkFig16InsertThroughput(b *testing.B) {
	ds := sharedDataset(b)
	for _, name := range competitorNames {
		name := name
		b.Run(name, func(b *testing.B) {
			var builder bench.Builder
			for _, bl := range bench.Competitors(ds, 7) {
				if bl.Name == name {
					builder = bl
				}
			}
			s, err := builder.New()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Insert(ds.Stream[i%len(ds.Stream)])
			}
			b.StopTimer()
		})
	}
}

// BenchmarkFig17InsertLatency is the latency view of the same measurement.
func BenchmarkFig17InsertLatency(b *testing.B) { BenchmarkFig16InsertThroughput(b) }

// BenchmarkFig10EdgeQueries measures edge-query latency per structure at
// Lq = 10^5 and reports AAE/ARE (Fig. 10).
func BenchmarkFig10EdgeQueries(b *testing.B) {
	ds := sharedDataset(b)
	w := trq.NewWorkload(ds.Truth, 3)
	queries := w.EdgeQueries(512, 1e5)
	for _, name := range competitorNames {
		name := name
		b.Run(name, func(b *testing.B) {
			s := builtSummary(b, name)
			var acc metrics.Accuracy
			for _, q := range queries {
				acc.Observe(s.EdgeWeight(q.S, q.D, q.Ts, q.Te), ds.Truth.EdgeWeight(q.S, q.D, q.Ts, q.Te))
			}
			b.ReportMetric(acc.AAE(), "AAE")
			b.ReportMetric(acc.ARE(), "ARE")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				s.EdgeWeight(q.S, q.D, q.Ts, q.Te)
			}
		})
	}
}

// BenchmarkFig11VertexQueries measures vertex-query latency per structure
// at Lq = 10^5 and reports AAE (Fig. 11).
func BenchmarkFig11VertexQueries(b *testing.B) {
	ds := sharedDataset(b)
	w := trq.NewWorkload(ds.Truth, 4)
	queries := w.VertexQueries(256, 1e5)
	for _, name := range competitorNames {
		name := name
		b.Run(name, func(b *testing.B) {
			s := builtSummary(b, name)
			var acc metrics.Accuracy
			for _, q := range queries {
				if q.Out {
					acc.Observe(s.VertexOut(q.V, q.Ts, q.Te), ds.Truth.VertexOut(q.V, q.Ts, q.Te))
				} else {
					acc.Observe(s.VertexIn(q.V, q.Ts, q.Te), ds.Truth.VertexIn(q.V, q.Ts, q.Te))
				}
			}
			b.ReportMetric(acc.AAE(), "AAE")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if q.Out {
					s.VertexOut(q.V, q.Ts, q.Te)
				} else {
					s.VertexIn(q.V, q.Ts, q.Te)
				}
			}
		})
	}
}

// BenchmarkFig12PathQueries measures 4-hop path-query latency per structure
// at Lq = 10^5 and reports AAE (Fig. 12).
func BenchmarkFig12PathQueries(b *testing.B) {
	ds := sharedDataset(b)
	w := trq.NewWorkload(ds.Truth, 5)
	queries := w.PathQueries(128, 4, 1e5)
	for _, name := range competitorNames {
		name := name
		b.Run(name, func(b *testing.B) {
			s := builtSummary(b, name)
			var acc metrics.Accuracy
			for _, q := range queries {
				acc.Observe(trq.PathWeight(s, q.Path, q.Ts, q.Te), ds.Truth.PathWeight(q.Path, q.Ts, q.Te))
			}
			b.ReportMetric(acc.AAE(), "AAE")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				trq.PathWeight(s, q.Path, q.Ts, q.Te)
			}
		})
	}
}

// BenchmarkFig13SubgraphQueries measures 200-edge subgraph-query latency
// per structure at Lq = 10^5 and reports AAE (Fig. 13).
func BenchmarkFig13SubgraphQueries(b *testing.B) {
	ds := sharedDataset(b)
	w := trq.NewWorkload(ds.Truth, 6)
	queries := w.SubgraphQueries(32, 200, 1e5)
	for _, name := range competitorNames {
		name := name
		b.Run(name, func(b *testing.B) {
			s := builtSummary(b, name)
			var acc metrics.Accuracy
			for _, q := range queries {
				acc.Observe(trq.SubgraphWeight(s, q.Edges, q.Ts, q.Te), ds.Truth.SubgraphWeight(q.Edges, q.Ts, q.Te))
			}
			b.ReportMetric(acc.AAE(), "AAE")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				trq.SubgraphWeight(s, q.Edges, q.Ts, q.Te)
			}
		})
	}
}

// BenchmarkFig14Skewness regenerates the skewness sweep (Fig. 14).
func BenchmarkFig14Skewness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Run("fig14", benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15Variance regenerates the variance sweep (Fig. 15).
func BenchmarkFig15Variance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Run("fig15", benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig18DeleteThroughput measures per-item deletion cost per
// structure (Fig. 18). Deleted items are re-inserted outside the timer so
// the structure stays loaded.
func BenchmarkFig18DeleteThroughput(b *testing.B) {
	ds := sharedDataset(b)
	sample := ds.Stream
	if len(sample) > 4096 {
		sample = sample[:4096]
	}
	for _, name := range competitorNames {
		name := name
		b.Run(name, func(b *testing.B) {
			var builder bench.Builder
			for _, bl := range bench.Competitors(ds, 7) {
				if bl.Name == name {
					builder = bl
				}
			}
			s, err := builder.New()
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range ds.Stream {
				s.Insert(e)
			}
			trq.Finalize(s)
			del := s.(trq.Deleter)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%len(sample) == 0 {
					b.StopTimer() // restore deleted items
					for _, e := range sample {
						s.Insert(e)
					}
					b.StartTimer()
				}
				del.Delete(sample[i%len(sample)])
			}
			b.StopTimer()
		})
	}
}

// BenchmarkFig19Space reports packed bytes per edge for every structure
// (Fig. 19).
func BenchmarkFig19Space(b *testing.B) {
	ds := sharedDataset(b)
	for _, name := range competitorNames {
		name := name
		b.Run(name, func(b *testing.B) {
			s := builtSummary(b, name)
			var space int64
			for i := 0; i < b.N; i++ {
				space = s.SpaceBytes()
			}
			b.ReportMetric(float64(space)/float64(ds.Stats.Edges), "bytes/edge")
		})
	}
}

// BenchmarkFig20Optimizations measures HIGGS insert cost per optimization
// variant (Fig. 20a/b): baseline, no MMB, no OB.
func BenchmarkFig20Optimizations(b *testing.B) {
	ds := sharedDataset(b)
	variants := []struct {
		name string
		cfg  func() core.Config
	}{
		{"baseline", core.DefaultConfig},
		{"noMMB", func() core.Config { c := core.DefaultConfig(); c.Maps = 1; return c }},
		{"noOB", func() core.Config { c := core.DefaultConfig(); c.OverflowBlocks = false; return c }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			s, err := core.New(v.cfg())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Insert(ds.Stream[i%len(ds.Stream)])
			}
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(float64(st.Leaves), "leaves")
			b.ReportMetric(float64(st.SpaceBytes)/float64(st.Items+1), "bytes/item")
		})
	}
}

// BenchmarkFig21Parameters measures HIGGS edge-query cost per leaf matrix
// size d1 and reports the space trade-off (Fig. 21).
func BenchmarkFig21Parameters(b *testing.B) {
	ds := sharedDataset(b)
	w := trq.NewWorkload(ds.Truth, 8)
	queries := w.EdgeQueries(256, 1e5)
	for _, d1 := range []uint32{4, 8, 16, 32, 64} {
		d1 := d1
		b.Run(fmt.Sprintf("d1=%d", d1), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.D1 = d1
			s, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range ds.Stream {
				s.Insert(e)
			}
			s.Finalize()
			b.ReportMetric(float64(s.SpaceBytes())/float64(ds.Stats.Edges), "bytes/edge")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				s.EdgeWeight(q.S, q.D, q.Ts, q.Te)
			}
		})
	}
}
