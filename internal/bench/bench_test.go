package bench

import (
	"bytes"
	"strconv"
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
// gates with CI's own arguments (-scale 0.15 -presets lkml -seed 42). A
// gate's contracts fail inside its own rows; on top of that this test holds
// each run to the metric names CI's BENCH_<id>.json artifacts are keyed by
// and to the few values that are deterministic at these arguments but are
// not a contract of the gate itself.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke suite is moderately expensive")
	}
	for _, g := range []struct {
		id string
		// The artifact's key set; "#" stands for each of shardCounts.
		metrics []string
	}{
		{"asyncingest", []string{"lkml_s#_sync_eps", "lkml_s#_async_eps"}},
		{"batchquery", []string{"lkml_s#_percall_qps", "lkml_s#_batched_qps", "lkml_s#_locks_per_batch"}},
		{"walrecovery", []string{"lkml_s#_replay_eps"}},
		{"retention", []string{"lkml_s#_dropped"}},
		{"allocs", []string{"lkml_steady_insert_allocs", "lkml_edge_probe_allocs", "lkml_insert_eps"}},
		{"replication", []string{"lkml_s#_catchup_eps", "lkml_read_qps_r1", "lkml_read_qps_r2", "lkml_read_scaling"}},
		{"readcache", []string{"lkml_s#_uncached_qps", "lkml_s#_cached_qps", "lkml_s#_hit_rate", "lkml_s#_locks_full_hit"}},
		{"analytics", []string{"lkml_s#_ingest_eps", "lkml_s#_hh_out_match", "lkml_s#_hh_in_match", "lkml_s#_burst_flagged",
			"lkml_s#_delta_rank_match", "lkml_s#_cached_match", "lkml_s#_undercounts"}},
	} {
		t.Run(g.id, func(t *testing.T) {
			var buf bytes.Buffer
			o := Options{Scale: 0.15, Seed: 42, Out: &buf, Presets: []stream.Preset{stream.Lkml}, Metrics: map[string]float64{}}
			if err := Run(g.id, o); err != nil {
				t.Fatalf("%v\n%s", err, buf.String())
			}
			want := map[string]bool{}
			for _, m := range g.metrics {
				for _, n := range shardCounts { // a name without "#" collapses to itself
					want[strings.Replace(m, "#", strconv.Itoa(n), 1)] = true
				}
			}
			for name := range want {
				if _, ok := o.Metrics[name]; !ok {
					t.Errorf("metric %s was not recorded", name)
				}
			}
			if len(o.Metrics) != len(want) {
				t.Errorf("run recorded %d metrics, the artifact key set has %d: %v", len(o.Metrics), len(want), o.Metrics)
			}
			for name, got := range o.Metrics {
				if want, ok := gateExact[name]; ok && got != want {
					t.Errorf("%s = %v, want exactly %v", name, got, want)
				}
				if floor, ok := gateAtLeast[name]; ok && got < floor {
					t.Errorf("%s = %v, want ≥ %v", name, got, floor)
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

// gateExact holds the leaves the retention gate's reference run reclaims at
// its three expire points (lkml @0.15, seed 42): deterministic given
// stream, seed and shard count, so a change in either direction means
// retention semantics changed.
var gateExact = map[string]float64{
	"lkml_s1_dropped": 28,
	"lkml_s2_dropped": 33,
	"lkml_s4_dropped": 33,
	"lkml_s8_dropped": 35,
}

// gateAtLeast is a drift alarm, not a contract: the readcache gate's Zipf
// workload measures a 94 % hit rate at these arguments and fails in-row
// below 80 %; a drop under 90 % means the workload's composition moved.
var gateAtLeast = map[string]float64{
	"lkml_s1_hit_rate": 0.9,
	"lkml_s2_hit_rate": 0.9,
	"lkml_s4_hit_rate": 0.9,
	"lkml_s8_hit_rate": 0.9,
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
