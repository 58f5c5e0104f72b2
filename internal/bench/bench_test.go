package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"higgs/internal/stream"
	"higgs/internal/trq"
)

// tinyOptions keeps smoke tests fast: one small dataset, few queries.
func tinyOptions(buf *bytes.Buffer) Options {
	return Options{
		Scale:           0.02,
		EdgeQueries:     40,
		VertexQueries:   20,
		PathQueries:     10,
		SubgraphQueries: 5,
		SkewNodes:       500,
		SkewEdges:       4000,
		Seed:            7,
		Out:             buf,
		Presets:         []stream.Preset{stream.Lkml},
	}
}

func TestLoadPreset(t *testing.T) {
	ds, err := LoadPreset(stream.Lkml, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Stats.Edges == 0 || ds.Truth.Len() != ds.Stats.Edges {
		t.Fatalf("dataset inconsistent: %+v truth=%d", ds.Stats, ds.Truth.Len())
	}
	if _, err := LoadPreset(stream.Preset("nope"), 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestCompetitorsBuildAndAgree(t *testing.T) {
	ds, err := LoadPreset(stream.Lkml, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	builders := Competitors(ds, 1)
	if len(builders) != 6 {
		t.Fatalf("want 6 competitors, got %d", len(builders))
	}
	names := map[string]bool{}
	for _, b := range builders {
		s, err := buildAndFill(b, ds)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != b.Name {
			t.Errorf("builder %q produced %q", b.Name, s.Name())
		}
		names[s.Name()] = true
		// Every competitor over-estimates only, on a sample of queries.
		w := trq.NewWorkload(ds.Truth, 3)
		for _, q := range w.EdgeQueries(30, 1e5) {
			got := s.EdgeWeight(q.S, q.D, q.Ts, q.Te)
			want := ds.Truth.EdgeWeight(q.S, q.D, q.Ts, q.Te)
			if got < want {
				t.Errorf("%s: edge (%d,%d) [%d,%d] = %d < truth %d", s.Name(), q.S, q.D, q.Ts, q.Te, got, want)
			}
		}
		if s.SpaceBytes() <= 0 {
			t.Errorf("%s: non-positive space", s.Name())
		}
		trq.Close(s)
	}
	for _, want := range []string{"HIGGS", "PGSS", "Horae", "Horae-cpt", "AuxoTime", "AuxoTime-cpt"} {
		if !names[want] {
			t.Errorf("missing competitor %s", want)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments()) != 25 {
		t.Fatalf("registry has %d experiments", len(Experiments()))
	}
	var buf bytes.Buffer
	if err := Run("nope", tinyOptions(&buf)); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table2", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "lkml") || !strings.Contains(out, "nodes") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// TestExperimentsSmoke runs every figure experiment at tiny scale and
// checks each prints rows for every competitor, then runs the eight CI
// gates with CI's own arguments (-scale 0.15 -presets lkml -seed 42) and
// holds each to the metric names its committed baseline is keyed by — so
// go test sees a gate break, or a metric renamed or dropped, before CI
// does.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke suite is moderately expensive")
	}
	for _, id := range []string{"asyncingest", "batchquery", "walrecovery", "retention", "allocs", "replication", "readcache", "analytics"} {
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			o := Options{Scale: 0.15, Seed: 42, Out: &buf, Presets: []stream.Preset{stream.Lkml}, Metrics: map[string]float64{}}
			if err := Run(id, o); err != nil {
				t.Fatalf("%v\n%s", err, buf.String())
			}
			raw, err := os.ReadFile(filepath.Join("..", "..", "bench", "baselines", "BENCH_"+id+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var baseline struct {
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(raw, &baseline); err != nil {
				t.Fatal(err)
			}
			if len(baseline.Metrics) == 0 {
				t.Fatal("baseline lists no metrics; the check is vacuous")
			}
			for name := range baseline.Metrics {
				if _, ok := o.Metrics[name]; !ok {
					t.Errorf("baseline metric %s was not recorded; run recorded %v", name, o.Metrics)
				}
			}
		})
	}
	for _, id := range []string{"fig10", "fig11", "fig12", "fig13", "fig16", "fig18", "fig19", "fig20", "fig21", "ablation", "budget", "reverse", "sharded"} {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(id, tinyOptions(&buf)); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			switch id {
			case "fig20", "fig21", "ablation", "budget", "reverse", "sharded":
				if !strings.Contains(out, "lkml") {
					t.Fatalf("%s output missing dataset rows:\n%s", id, out)
				}
				return
			}
			for _, name := range []string{"HIGGS", "PGSS", "Horae", "AuxoTime"} {
				if !strings.Contains(out, name) {
					t.Fatalf("%s output missing %s:\n%s", id, name, out)
				}
			}
			if strings.Contains(out, "undercounts") {
				// One-sided error must hold for every row.
				for _, line := range strings.Split(out, "\n") {
					fields := strings.Fields(line)
					if len(fields) > 0 && fields[len(fields)-1] != "0" &&
						(strings.Contains(line, "HIGGS") || strings.Contains(line, "Horae") ||
							strings.Contains(line, "PGSS") || strings.Contains(line, "AuxoTime")) {
						t.Fatalf("%s reports undercounts:\n%s", id, line)
					}
				}
			}
		})
	}
}

// TestSyntheticSweeps runs fig14/fig15 with a very small synthetic family.
func TestSyntheticSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep suite is moderately expensive")
	}
	for _, id := range []string{"fig14", "fig15"} {
		var buf bytes.Buffer
		o := tinyOptions(&buf)
		if err := Run(id, o); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "HIGGS") {
			t.Fatalf("%s output missing rows:\n%s", id, buf.String())
		}
	}
}
