package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is how the acceptance check measures spread.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// agreement is how well repeated runs of one (workload, metric) agree.
type agreement struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"` // in run order; even runs are set A, odd runs set B
	Median   float64   `json:"median"`
	Spread   float64   `json:"spread"`   // (max − min) / median
	MaxDev   float64   `json:"max_dev"`  // largest |value − median| / median
	IQR      float64   `json:"iqr"`      // (Q3 − Q1) / median
	SetsOff  float64   `json:"sets_off"` // how much worse set B's median is than set A's, or the reverse
	Bound    float64   `json:"bound"`    // from BENCHMARK.json
	Within   bool      `json:"within"`   // every limit held
}

func agree(workload string, m metric, values []float64) agreement {
	a := agreement{Workload: workload, Metric: m.Name, Values: values, Median: median(values), Bound: m.Bound}
	lo, hi := values[0], values[0]
	var setA, setB []float64
	for i, v := range values {
		lo, hi = min(lo, v), max(hi, v)
		a.MaxDev = max(a.MaxDev, math.Abs(v-a.Median)/a.Median)
		if i%2 == 0 {
			setA = append(setA, v)
		} else {
			setB = append(setB, v)
		}
	}
	a.Spread = (hi - lo) / a.Median
	if len(values) >= 2 {
		q1, q3 := quartiles(values)
		a.IQR = (q3 - q1) / a.Median
		a.SetsOff = math.Abs(median(setA)-median(setB)) / a.Median
	}
	// The acceptance rule: the quartiles lie within the bound, and so do
	// the two sets' medians. Set-up time is held to the second only: it is
	// a handful of boots of half a second each. Single runs are reported
	// (Spread, MaxDev) but not limited: on a machine whose hypervisor takes
	// the CPU away for seconds at a time, one run in ten lands in such an
	// episode whatever the benchmark does.
	a.Within = a.SetsOff <= a.Bound && (m.Name == "setup_s" || a.IQR <= a.Bound)
	return a
}

// repeat runs every workload n times, alternating the runs into two sets,
// and reports for every end-to-end metric the spread of single runs, the
// distance between their quartiles and the disagreement of the two sets'
// medians against the metric's bound — the check a later change's
// before-and-after rests on. It fails when a limit is exceeded or an answer
// is wrong.
func (s *session) repeat(cfg config, n int, varySeed bool, w io.Writer) error {
	values := map[string]map[string][]float64{}
	failed := 0
	for i := 0; i < n; i++ {
		for _, name := range workloadNames {
			c := cfg
			c.workload, c.trace = name, false
			if varySeed {
				c.seed += int64(i)
			}
			res, err := s.run(c)
			if err != nil {
				return fmt.Errorf("run %d of %s: %w", i, name, err)
			}
			failed += res.Failed
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			fmt.Fprintf(w, "run %d %s seed=%d failed=%d", i, name, c.seed, res.Failed)
			for _, m := range endToEnd {
				values[name][m.Name] = append(values[name][m.Name], res.Metrics[m.Name])
				fmt.Fprintf(w, " %s=%.6g", m.Name, res.Metrics[m.Name])
			}
			fmt.Fprintln(w)
		}
	}
	var all []agreement
	outside := 0
	fmt.Fprintf(w, "\n%-14s %-21s %12s %8s %8s %8s %8s %6s\n", "workload", "metric", "median", "spread", "max_dev", "iqr", "sets_off", "bound")
	for _, name := range workloadNames {
		for _, m := range endToEnd {
			a := agree(name, m, values[name][m.Name])
			all = append(all, a)
			verdict := ""
			if !a.Within {
				verdict = "  OUTSIDE"
				outside++
			}
			fmt.Fprintf(w, "%-14s %-21s %12.6g %8.4f %8.4f %8.4f %8.4f %6.2f%s\n",
				name, m.Name, a.Median, a.Spread, a.MaxDev, a.IQR, a.SetsOff, a.Bound, verdict)
		}
	}
	if err := writeJSON(filepath.Join(s.outDir, "repeat.json"), all); err != nil {
		return err
	}
	if failed > 0 || outside > 0 {
		return fmt.Errorf("repeat: %d checks failed, %d of %d metrics outside their limits", failed, outside, len(all))
	}
	return nil
}
