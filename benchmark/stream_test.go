package main

import (
	"bytes"
	"testing"
)

var testSizes = fullSizes.scaled(50)

func TestCycleIsBaseShifted(t *testing.T) {
	z := testSizes
	base, err := baseStream(z, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != z.CycleEdges {
		t.Fatalf("base stream has %d edges, want %d", len(base), z.CycleEdges)
	}
	last := int64(0)
	for c := 0; c < 6; c++ {
		cyc := cycleStream(base, z, c)
		shift := timeOrigin + int64(c)*z.Span
		for i, e := range cyc {
			want := base[i]
			want.T += shift
			if e != want {
				t.Fatalf("cycle %d edge %d = %+v, want the base edge shifted by %d: %+v", c, i, e, shift, want)
			}
			if e.T < last {
				t.Fatalf("cycle %d edge %d: timestamp %d after %d: not monotone across cycles", c, i, e.T, last)
			}
			last = e.T
		}
		if first, end := cyc[0].T, cyc[len(cyc)-1].T; first < cycleStart(z, c) || end >= cycleStart(z, c+1) {
			t.Fatalf("cycle %d spans [%d, %d], outside its own [%d, %d)", c, first, end, cycleStart(z, c), cycleStart(z, c+1))
		}
	}
	if first, end := base[0].T, base[len(base)-1].T; first != 0 || end >= z.Span {
		t.Fatalf("base stream spans [%d, %d], want it to start at 0 and end before %d", first, end, z.Span)
	}
}

// After the expire that closes cycle c, exactly the WindowCycles newest
// cycles lie at or after the cutoff: the live window is WindowCycles ×
// CycleEdges edges by construction.
func TestLiveWindowIsConstant(t *testing.T) {
	z := testSizes
	base, _ := baseStream(z, 7)
	for c := z.WindowCycles - 1; c < z.WindowCycles+5; c++ {
		cut := expireCutoff(z, c)
		live := 0
		for k := 0; k <= c; k++ {
			for _, e := range cycleStream(base, z, k) {
				if e.T >= cut {
					live++
				}
			}
		}
		if want := z.WindowCycles * z.CycleEdges; live != want {
			t.Errorf("after cycle %d: %d edges at or after the cutoff, want %d", c, live, want)
		}
	}
}

func TestCycleOps(t *testing.T) {
	z := testSizes
	z.FlushEvery = 3
	base, _ := baseStream(z, 7)
	ops := cycleOps(base, z, 5)
	edges, batches := 0, 0
	for i, o := range ops {
		switch o.kind {
		case opIngest:
			batches++
			edges += len(o.edges)
			if len(o.edges) > z.IngestBatch {
				t.Errorf("op %d: batch of %d edges, want at most %d", i, len(o.edges), z.IngestBatch)
			}
			if o.endsSegment {
				t.Errorf("op %d: an ingest batch ends a segment; only a barrier may", i)
			}
		case opFlush:
			if batches%z.FlushEvery != 0 && edges != z.CycleEdges {
				t.Errorf("op %d: flush after %d batches, want one every %d", i, batches, z.FlushEvery)
			}
		}
	}
	if edges != z.CycleEdges {
		t.Errorf("cycle ops carry %d edges, want %d", edges, z.CycleEdges)
	}
	n := len(ops)
	if ops[n-2].kind != opFlush || ops[n-1].kind != opExpire || ops[n-1].cutoff != expireCutoff(z, 5) {
		t.Errorf("cycle must close with flush then expire at %d, got kinds %d, %d cutoff %d",
			expireCutoff(z, 5), ops[n-2].kind, ops[n-1].kind, ops[n-1].cutoff)
	}
	if ops[n-2].endsSegment || !ops[n-1].endsSegment {
		t.Error("the closing flush and expire must end one segment together")
	}
}

func TestSameSeedSameBytes(t *testing.T) {
	z := testSizes
	for _, name := range workloadNames {
		a, _, _, err := buildPlan(name, z, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _, _ := buildPlan(name, z, 42)
		c, _, _, _ := buildPlan(name, z, 43)
		differs := false
		for round := 0; round < 3; round++ {
			ra, rb, rc := a.round(round), b.round(round), c.round(round)
			if len(ra) != len(rb) {
				t.Fatalf("%s round %d: %d requests, then %d with the same seed", name, round, len(ra), len(rb))
			}
			for i := range ra {
				if !bytes.Equal(ra[i].req, rb[i].req) {
					t.Fatalf("%s round %d request %d differs between two builds from one seed", name, round, i)
				}
				if i < len(rc) && !bytes.Equal(ra[i].req, rc[i].req) {
					differs = true
				}
			}
		}
		if !differs {
			t.Errorf("%s: seeds 42 and 43 give the same requests", name)
		}
	}
}

// A round of a write workload is the round before it shifted in time:
// same number of requests, same sizes, byte for byte the same length.
func TestWriteRoundsAreShiftedCopies(t *testing.T) {
	z := testSizes
	for _, name := range []string{"ingest-window", "mixed"} {
		p, _, _, err := buildPlan(name, z, 42)
		if err != nil {
			t.Fatal(err)
		}
		first := p.round(1)
		for round := 2; round < 5; round++ {
			next := p.round(round)
			if len(next) != len(first) {
				t.Fatalf("%s round %d has %d requests, round 1 has %d", name, round, len(next), len(first))
			}
			for i := range next {
				if next[i].kind != first[i].kind || len(next[i].req) != len(first[i].req) || next[i].endsSegment != first[i].endsSegment {
					t.Fatalf("%s round %d request %d is not round 1's request shifted", name, round, i)
				}
			}
		}
	}
}
