package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json, the contract at the repository
// root. The tables in spec.go are what the program prints; the two must
// say the same.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program sizes its rounds for %d", spec.RunSeconds, runSeconds)
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command = %v, want %v", spec.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(spec.Paths, want) {
		t.Errorf("paths = %v, want %v", spec.Paths, want)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d = %q with why %q, want %q and a reason", i, w.Name, w.Why, workloadNames[i])
		}
	}
	check := func(kind string, got []specMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			better := "lower"
			if m.Higher {
				better = "higher"
			}
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != better {
				t.Errorf("%s %d = %s [%s] %s, want %s [%s] %s", kind, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %s: bound %v, want bounded=%v %v", kind, m.Name, g.Bound, bounded, m.Bound)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
