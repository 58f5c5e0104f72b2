package main

import (
	"fmt"
	"sort"
)

// Minimum sample counts the quiet estimate accepts: a timed phase has at
// least minRounds rounds, a set-up phase at least minBoots boots.
const (
	minRounds = 16
	minBoots  = 5
)

// quiet returns the second best of values, which are times or costs: the
// second lowest. (A rate's second best is the work over this.)
//
// Every round does identical work, so the rounds differ only by what the
// machine added on top: a neighbour's burst, a timer tick, a page-cache
// flush. Interference only ever adds time, so the best rounds are the ones
// closest to the program's own cost. The single best is one lucky sample;
// the second best needs two quiet rounds to agree and is unmoved by
// slowing any number of the others.
func quiet(values []float64, min int) (float64, error) {
	if len(values) < min {
		return 0, fmt.Errorf("quiet estimate needs at least %d samples, got %d", min, len(values))
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[1], nil
}

// percentile returns the p-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of values without reordering them.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// div is a / b, and 0 where there was nothing to divide by: a layer a
// workload does not touch reports 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
