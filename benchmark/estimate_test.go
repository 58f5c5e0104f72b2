package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuietRefusesTooFewSamples(t *testing.T) {
	if _, err := quiet(make([]float64, minRounds-1), minRounds); err == nil {
		t.Errorf("quiet accepted %d rounds, want an error below %d", minRounds-1, minRounds)
	}
	if _, err := quiet(make([]float64, minBoots-1), minBoots); err == nil {
		t.Errorf("quiet accepted %d boots, want an error below %d", minBoots-1, minBoots)
	}
	if _, err := quiet(make([]float64, minBoots), minBoots); err != nil {
		t.Errorf("quiet refused %d boots: %v", minBoots, err)
	}
}

func TestQuietIsSecondBest(t *testing.T) {
	v := []float64{5, 3, 9, 1, 7}
	if got, _ := quiet(v, 1); got != 3 {
		t.Errorf("quiet = %v, want the second lowest, 3", got)
	}
	if v[0] != 5 {
		t.Error("quiet reordered its input")
	}
}

// Interference only ever adds time: slowing the 14 noisier of 16 rounds
// twofold must leave the estimate where it was, and slowing any rounds at
// all must never lower it.
func TestQuietUnmovedBySlowRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		times := make([]float64, minRounds)
		for i := range times {
			times[i] = 1 + rng.Float64()
		}
		want, _ := quiet(times, minRounds)

		noisier := append([]float64(nil), times...)
		for i := range noisier {
			if times[i] > want {
				noisier[i] *= 2
			}
		}
		if got, _ := quiet(noisier, minRounds); got != want {
			t.Fatalf("trial %d: estimate moved from %v to %v when the 14 noisier rounds were slowed", trial, want, got)
		}

		any14 := append([]float64(nil), times...)
		for _, i := range rng.Perm(minRounds)[:14] {
			any14[i] *= 2
		}
		if got, _ := quiet(any14, minRounds); got < want {
			t.Fatalf("trial %d: slowing rounds lowered the estimate from %v to %v", trial, want, got)
		}
	}
}

func TestQuietColumns(t *testing.T) {
	rows := make([][]float64, minRounds)
	for i := range rows {
		rows[i] = []float64{float64(10 + i), float64(100 - i)}
	}
	got, err := quietColumns(rows)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 11 || got[1] != 100-float64(minRounds)+2 {
		t.Errorf("quietColumns = %v, want the second lowest of each column", got)
	}
	rows[3] = rows[3][:1]
	if _, err := quietColumns(rows); err == nil {
		t.Error("quietColumns accepted rounds of different lengths")
	}
}

// Python: statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
// gives [3.5, 13.5, 31.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if math.Abs(q1-3.5) > 1e-12 || math.Abs(q3-31) > 1e-12 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}
