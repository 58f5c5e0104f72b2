// Command higgsbench regenerates the paper's evaluation tables and figures
// (ICDE 2025, §VI). Each experiment builds the six competitors — HIGGS,
// PGSS, Horae, Horae-cpt, AuxoTime, AuxoTime-cpt — on synthetic stand-ins
// for the paper's datasets and prints one row per plotted point.
//
// Usage:
//
//	higgsbench -list
//	higgsbench -exp fig10
//	higgsbench -exp all -scale 1.0 -equeries 10000
//	higgsbench -exp walrecovery -json artifacts/BENCH_walrecovery.json
//
// Query volumes and dataset scale default to laptop-friendly values; raise
// -scale and the query counts to approach the paper's original volumes.
//
// -json writes a machine-readable run artifact (experiment id, options,
// elapsed time, pass/fail, and the captured table output) to the given
// path, creating parent directories — what CI uploads per run so the
// performance trajectory stays inspectable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"higgs/internal/bench"
	"higgs/internal/stream"
)

// artifact is the -json output: one self-describing record per run.
type artifact struct {
	Experiment string             `json:"experiment"`
	Presets    []stream.Preset    `json:"presets"`
	Scale      float64            `json:"scale"`
	Seed       int64              `json:"seed"`
	Start      time.Time          `json:"start"`
	ElapsedMS  int64              `json:"elapsed_ms"`
	OK         bool               `json:"ok"`
	Error      string             `json:"error,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Output     string             `json:"output"`
}

// resolvePresets turns the -presets value into the list the run uses: the
// named presets, or every preset when the flag is omitted — resolved here
// rather than left to bench.Options' own default so the artifact records
// the datasets that actually ran.
func resolvePresets(flagValue string) []stream.Preset {
	if flagValue == "" {
		return stream.Presets
	}
	var out []stream.Preset
	for _, p := range strings.Split(flagValue, ",") {
		out = append(out, stream.Preset(strings.TrimSpace(p)))
	}
	return out
}

// newArtifact describes a finished run: the options it ran with, not the
// flags as typed.
func newArtifact(exp string, opts bench.Options, start time.Time, runErr error, output string) artifact {
	a := artifact{
		Experiment: exp,
		Presets:    opts.Presets,
		Scale:      opts.Scale,
		Seed:       opts.Seed,
		Start:      start.UTC(),
		ElapsedMS:  time.Since(start).Milliseconds(),
		OK:         runErr == nil,
		Metrics:    opts.Metrics,
		Output:     output,
	}
	if runErr != nil {
		a.Error = runErr.Error()
	}
	return a
}

// writeArtifact persists the run record, creating parent directories.
func writeArtifact(path string, a artifact) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list) or \"all\"")
		list     = flag.Bool("list", false, "list available experiments")
		scale    = flag.Float64("scale", 0.5, "dataset scale factor (1.0 ≈ paper-shaped sizes)")
		equeries = flag.Int("equeries", 2000, "edge queries per range length")
		vqueries = flag.Int("vqueries", 400, "vertex queries per range length")
		pqueries = flag.Int("pqueries", 200, "path queries per hop count")
		squeries = flag.Int("squeries", 50, "subgraph queries per size")
		skewN    = flag.Int("skewnodes", 20000, "synthetic sweep: vertex universe (fig14/15)")
		skewE    = flag.Int("skewedges", 300000, "synthetic sweep: edge volume (fig14/15)")
		seed     = flag.Int64("seed", 42, "workload seed")
		presets  = flag.String("presets", "", "comma-separated dataset presets (default: all of lkml,wiki-talk,stackoverflow)")
		jsonOut  = flag.String("json", "", "write a machine-readable run artifact (JSON) to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "higgsbench: -exp is required (use -list to see experiments)")
		flag.Usage()
		os.Exit(2)
	}

	opts := bench.Options{
		Scale:           *scale,
		EdgeQueries:     *equeries,
		VertexQueries:   *vqueries,
		PathQueries:     *pqueries,
		SubgraphQueries: *squeries,
		SkewNodes:       *skewN,
		SkewEdges:       *skewE,
		Seed:            *seed,
		Out:             os.Stdout,
		Presets:         resolvePresets(*presets),
	}

	var captured strings.Builder
	if *jsonOut != "" {
		opts.Out = io.MultiWriter(os.Stdout, &captured)
	}
	opts.Metrics = map[string]float64{}

	start := time.Now()
	runErr := bench.Run(*exp, opts)
	if *jsonOut != "" {
		a := newArtifact(*exp, opts, start, runErr, captured.String())
		if err := writeArtifact(*jsonOut, a); err != nil {
			fmt.Fprintf(os.Stderr, "higgsbench: -json: %v\n", err)
			os.Exit(1)
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "higgsbench: %v\n", runErr)
		os.Exit(1)
	}
	fmt.Printf("\n(completed in %v)\n", time.Since(start).Round(time.Millisecond))
}
