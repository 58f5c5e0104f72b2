package bench

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"higgs/internal/stream"
	"higgs/internal/trq"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_smoke.golden from this build")

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
		s, err := b.New()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ds.Stream {
			s.Insert(e)
		}
		trq.Finalize(s)
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
	}
	for _, want := range competitorNames {
		if !names[want] {
			t.Errorf("missing competitor %s", want)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments()) != 23 {
		t.Fatalf("registry has %d experiments", len(Experiments()))
	}
	var buf bytes.Buffer
	if err := Run("nope", tinyOptions(&buf)); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// paperIDs is the paper half of the registry the golden covers (fig17 is
// fig16's run under another id, and neither records a deterministic cell).
var paperIDs = []string{"table2", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"fig16", "fig18", "fig19", "fig20", "fig21"}

// tinyRun is one experiment's run at tinyOptions.
type tinyRun struct {
	out     string
	metrics map[string]float64
	err     error
}

// paper runs each of paperIDs once per test binary; TestTable2, the smoke
// and sweep tests and the golden all read the same runs.
var paper = sync.OnceValue(func() map[string]tinyRun {
	runs := map[string]tinyRun{}
	for _, id := range paperIDs {
		var buf bytes.Buffer
		o := tinyOptions(&buf)
		o.Metrics = map[string]float64{}
		err := Run(id, o)
		runs[id] = tinyRun{buf.String(), o.Metrics, err}
	}
	return runs
})

// paperRun returns the shared run of one of paperIDs, which must have
// succeeded.
func paperRun(t *testing.T, id string) tinyRun {
	t.Helper()
	r := paper()[id]
	if r.err != nil {
		t.Fatalf("%v\n%s", r.err, r.out)
	}
	return r
}

func TestTable2(t *testing.T) {
	out := paperRun(t, "table2").out
	if !strings.Contains(out, "lkml") || !strings.Contains(out, "nodes") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// TestPaperGolden is the tracked trajectory of the reproduction: every
// deterministic number table2 and fig10–21 record at tinyOptions — accuracy,
// undercounts, space, tree shape — one "<experiment> <metric> <value>" line
// each. A change that moves accuracy or space shows up as a diff of
// testdata/paper_smoke.golden; `go test ./internal/bench -update` rewrites
// it when the move is meant.
func TestPaperGolden(t *testing.T) {
	var got []string
	for _, id := range paperIDs {
		r := paperRun(t, id)
		for _, name := range slices.Sorted(maps.Keys(r.metrics)) {
			got = append(got, fmt.Sprintf("%s %s %s", id, name, strconv.FormatFloat(r.metrics[name], 'f', -1, 64)))
		}
	}
	const path = "testdata/paper_smoke.golden"
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	for _, l := range got {
		if !slices.Contains(want, l) {
			t.Errorf("got, not in the golden:  %s", l)
		}
	}
	for _, l := range want {
		if !slices.Contains(got, l) {
			t.Errorf("in the golden, not got:  %s", l)
		}
	}
	if t.Failed() {
		t.Log("go test ./internal/bench -update rewrites the golden, if the change is meant")
	}
}

// TestExperimentsSmoke runs every figure experiment at tiny scale and
// checks each prints rows for every competitor, then runs the seven CI
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
	// The figures, read from what they record rather than what they print;
	// their runs are the golden's.
	for _, id := range []string{"fig10", "fig11", "fig12", "fig13", "fig16", "fig18", "fig19", "fig20", "fig21"} {
		t.Run(id, func(t *testing.T) {
			r := paperRun(t, id)
			rows := competitorNames
			if id == "fig20" || id == "fig21" {
				rows = []string{"lkml"}
			}
			for _, name := range rows {
				if !strings.Contains(r.out, name) {
					t.Fatalf("%s output missing %s:\n%s", id, name, r.out)
				}
			}
			switch id {
			case "fig10", "fig11", "fig12", "fig13":
				checkAccuracyClaim(t, r.metrics)
			case "fig19":
				// The paper's space claim is against the Horae and AuxoTime
				// families; PGSS is smaller and the paper does not say otherwise.
				higgs := r.metrics["lkml_HIGGS_space"]
				if higgs <= 0 {
					t.Errorf("lkml_HIGGS_space = %v", higgs)
				}
				for _, c := range []string{"Horae", "Horae-cpt", "AuxoTime", "AuxoTime-cpt"} {
					if space := r.metrics["lkml_"+c+"_space"]; higgs >= space {
						t.Errorf("HIGGS takes %.0f bytes, %s %.0f: the paper's space claim does not hold", higgs, c, space)
					}
				}
			}
		})
	}
	for _, x := range []struct {
		name, id string
		scale    float64
	}{
		{"ablation", "ablation", 0}, {"budget", "budget", 0}, {"sharded", "sharded", 0},
		{"fig18_one_edge", "fig18", 0.00001}, // n = len/10 = 0 once divided by zero
	} {
		t.Run(x.name, func(t *testing.T) {
			var buf bytes.Buffer
			o := tinyOptions(&buf)
			if x.scale != 0 {
				o.Scale = x.scale
			}
			if err := Run(x.id, o); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "lkml") {
				t.Fatalf("%s output missing dataset rows:\n%s", x.id, buf.String())
			}
		})
	}
}

var competitorNames = []string{"HIGGS", "PGSS", "Horae", "Horae-cpt", "AuxoTime", "AuxoTime-cpt"}

// checkAccuracyClaim holds an accuracy figure's recorded metrics to the
// paper's claim at every sweep point: no structure under-estimates, and
// HIGGS's ARE is no worse than any competitor's.
func checkAccuracyClaim(t *testing.T, m map[string]float64) {
	t.Helper()
	points := 0
	for name, higgs := range m {
		point, ok := strings.CutPrefix(name, "lkml_HIGGS_")
		if ok {
			point, ok = strings.CutSuffix(point, "_are")
		}
		if !ok {
			continue
		}
		points++
		for _, c := range competitorNames {
			are, recorded := m["lkml_"+c+"_"+point+"_are"]
			under, recordedU := m["lkml_"+c+"_"+point+"_undercounts"]
			switch {
			case !recorded || !recordedU:
				t.Errorf("%s recorded no accuracy at point %s", c, point)
			case under != 0:
				t.Errorf("%s under-estimates %v answers at point %s", c, under, point)
			case higgs > are:
				t.Errorf("point %s: HIGGS ARE %v > %s ARE %v", point, higgs, c, are)
			}
		}
	}
	if points != 7 {
		t.Errorf("checked %d sweep points, the figure has 7", points)
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
		if out := paperRun(t, id).out; !strings.Contains(out, "HIGGS") {
			t.Fatalf("%s output missing rows:\n%s", id, out)
		}
	}
}
