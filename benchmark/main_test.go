package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke test runs the real thing — build higgsd, boot it, kill it,
// recover it, drive every workload in both modes — on a state fifty times
// smaller than a measured run's.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSession(root, "")
	if err != nil {
		t.Fatal(err)
	}
	s.outDir = t.TempDir()
	scratch := s.scratch
	spec := readBenchmarkJSON(t)

	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			// Sixteen rounds, the fewest the estimate accepts.
			cfg := config{workload: name, seed: 9, seconds: 1, trace: trace, z: fullSizes.scaled(50)}
			res, err := s.run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed: %v", name, trace, res.Failed, res.Attempted, res.Problems)
			}
			if len(res.Rounds) != minRounds {
				t.Errorf("%s: %d timed rounds, want %d", name, len(res.Rounds), minRounds)
			}

			// Every metric BENCHMARK.json names for the mode is printed by
			// name with its unit, and the contract line carries exactly those.
			var human, line bytes.Buffer
			printResult(&human, res)
			if err := printContract(&line, res); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line.Bytes(), &out); err != nil {
				t.Fatalf("contract line: %v\n%s", err, line.Bytes())
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(out.Metrics) != len(want) || !out.Correct || out.Attempted != res.Attempted {
				t.Errorf("%s trace=%v: contract line has %d metrics (want %d), correct=%v", name, trace, len(out.Metrics), len(want), out.Correct)
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or without unit %q in the contract line", name, trace, m.Name, m.Unit)
				}
				if !strings.Contains(human.String(), " "+m.Name+" ") || !strings.Contains(human.String(), " "+m.Unit+"\n") {
					t.Errorf("%s trace=%v: metric %s [%s] not printed", name, trace, m.Name, m.Unit)
				}
				if !trace && (got.Value == nil || *got.Value <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			checkSeparation(t, name, res)
			if trace {
				checkSpans(t, filepath.Join(s.outDir, "trace.json"))
			}
			if _, err := os.Stat(filepath.Join(s.outDir, name+".json")); err != nil {
				t.Errorf("%s: raw values not written: %v", name, err)
			}
		}
	}

	// A run that fails must clean up as well: a daemon that cannot start.
	bad := *s
	bad.bin = "/bin/false"
	if _, err := bad.run(config{workload: "query-hot", seed: 9, seconds: 1, z: fullSizes.scaled(50)}); err == nil {
		t.Error("a run whose daemon exits at once reported no error")
	}
	if left, _ := os.ReadDir(scratch); len(left) != 0 {
		t.Errorf("%d state directories left in %s after the runs", len(left), scratch)
	}
	s.close()
	if _, err := os.Stat(scratch); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s survives the session", scratch)
	}
	if pids := processesMentioning(scratch); len(pids) != 0 {
		t.Errorf("processes %v still run with %s on their command line", pids, scratch)
	}
}

// checkSeparation asserts that the workloads stress the layers they were
// built to stress.
func checkSeparation(t *testing.T, name string, res *result) {
	t.Helper()
	m := res.Metrics
	switch name {
	case "query-hot":
		if m["rcache.hit_ratio"] < 0.9 {
			t.Errorf("query-hot: cache hit ratio %v, want at least 0.9", m["rcache.hit_ratio"])
		}
	case "query-cold":
		if m["rcache.hit_ratio"] > 0.05 {
			t.Errorf("query-cold: cache hit ratio %v, want at most 0.05", m["rcache.hit_ratio"])
		}
	}
	writes := name == "ingest-window" || name == "mixed"
	if (m["wal.bytes_per_edge"] > 0) != writes {
		t.Errorf("%s: wal.bytes_per_edge = %v", name, m["wal.bytes_per_edge"])
	}
	if m["core.undercounts"] != 0 {
		t.Errorf("%s: %v under-estimates", name, m["core.undercounts"])
	}
}

// checkSpans asserts that trace.json holds well-formed nested spans: IDs
// in order, every interval closed, every child inside its parent's round,
// request and interval.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	names := map[string]int{}
	for i, s := range spans {
		names[s.Name]++
		if s.ID != i || s.End < s.Start || s.Start < 0 || s.Round < 1 {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Parent >= i || p.Round != s.Round || p.Req != s.Req || s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %+v does not nest in its parent %+v", s, p)
		}
	}
	if names["server"] == 0 {
		t.Errorf("%s: no server spans; got %v", path, names)
	}
	if names["query"] > 0 && names["rcache"] == 0 {
		t.Errorf("%s: query spans without nested rcache spans; got %v", path, names)
	}
}

// processesMentioning lists the processes, other than this one, whose
// command line contains s.
func processesMentioning(s string) []string {
	var pids []string
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		cmdline, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err == nil && bytes.Contains(cmdline, []byte(s)) && e.Name() != "self" && e.Name() != "thread-self" {
			pids = append(pids, e.Name())
		}
	}
	return pids
}
