package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"higgs/internal/bench"
)

// TestArtifactDescribesTheRun writes artifacts the way main does and reads
// them back as CI's consumers would: the presets recorded are the ones the
// run used, also when -presets was omitted and all three ran.
func TestArtifactDescribesTheRun(t *testing.T) {
	for _, tc := range []struct {
		name        string
		presetsFlag string
		runErr      error
		wantPresets []string
	}{
		{"presets omitted", "", nil, []string{"lkml", "wiki-talk", "stackoverflow"}},
		{"one preset", "lkml", nil, []string{"lkml"}},
		{"spaced list", "lkml, wiki-talk", nil, []string{"lkml", "wiki-talk"}},
		{"failed run", "lkml", errors.New("bench: retention 4: diverged"), []string{"lkml"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := bench.Options{
				Scale:   0.15,
				Seed:    42,
				Presets: resolvePresets(tc.presetsFlag),
				Metrics: map[string]float64{"lkml_s1_dropped": 28},
			}
			// A directory that does not exist yet: CI points -json into one.
			path := filepath.Join(t.TempDir(), "bench-artifacts", "BENCH_retention.json")
			if err := writeArtifact(path, newArtifact("retention", opts, time.Now(), tc.runErr, "table\n")); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Experiment string             `json:"experiment"`
				Presets    []string           `json:"presets"`
				Scale      float64            `json:"scale"`
				Seed       int64              `json:"seed"`
				OK         bool               `json:"ok"`
				Error      string             `json:"error"`
				Metrics    map[string]float64 `json:"metrics"`
				Output     string             `json:"output"`
			}
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatalf("%v\n%s", err, raw)
			}
			if !reflect.DeepEqual(got.Presets, tc.wantPresets) {
				t.Errorf("presets = %v, want %v\n%s", got.Presets, tc.wantPresets, raw)
			}
			if got.Experiment != "retention" || got.Scale != 0.15 || got.Seed != 42 ||
				got.Metrics["lkml_s1_dropped"] != 28 || got.Output != "table\n" {
				t.Errorf("artifact does not describe the run:\n%s", raw)
			}
			if got.OK != (tc.runErr == nil) || (tc.runErr != nil && got.Error != tc.runErr.Error()) {
				t.Errorf("ok = %v, error = %q for run error %v", got.OK, got.Error, tc.runErr)
			}
		})
	}
}
