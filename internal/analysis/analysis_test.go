package analysis

import (
	"math"
	"math/rand"
	"testing"

	"higgs/internal/core"
	"higgs/internal/exact"
	"higgs/internal/stream"
)

func TestHashRange(t *testing.T) {
	// Paper configuration: d1 = 16, F1 = 19 ⇒ Z = 2^23 ≈ 8.4M (§VI-A).
	if got := HashRange(16, 19); got != math.Pow(2, 23) {
		t.Fatalf("Z = %g, want 2^23", got)
	}
}

// TestEpsilonAndFingerprintBits: Theorem 2 picks F1 = log2(e/(d1·ε)), so
// Epsilon must invert it — the paper's d1 = 16, F1 = 19 gives ε = e/2^23,
// and one more fingerprint bit halves ε.
func TestEpsilonAndFingerprintBits(t *testing.T) {
	eps := Epsilon(16, 19)
	if f1 := math.Log2(math.E / (16 * eps)); math.Abs(f1-19) > 1e-9 {
		t.Fatalf("log2(e/(d1·ε)) = %g, want F1 = 19", f1)
	}
	if got := Epsilon(16, 20); math.Abs(got-eps/2) > 1e-18 {
		t.Fatalf("ε(F1 = 20) = %g, want half of ε(19) = %g", got, eps/2)
	}
}

func TestErrorBoundsScale(t *testing.T) {
	v := VertexErrorBound(16, 19, 1_000_000)
	e := EdgeErrorBound(16, 19, 1_000_000)
	if v <= 0 || e <= 0 {
		t.Fatal("bounds must be positive")
	}
	// Edge bound is quadratically tighter (ε² vs ε).
	if e >= v {
		t.Fatalf("edge bound %g should be far below vertex bound %g", e, v)
	}
	if VertexErrorBound(16, 19, 2_000_000) != 2*v {
		t.Error("vertex bound should scale linearly with ‖w‖′")
	}
}

func TestExpectedUtilization(t *testing.T) {
	// More candidate buckets ⇒ higher expected utilization (the MMB
	// argument of §IV-C).
	u1 := ExpectedUtilization(16, 3, 1)
	u16 := ExpectedUtilization(16, 3, 16)
	if !(0 < u1 && u1 < u16 && u16 <= 1) {
		t.Fatalf("utilization ordering violated: p=1 → %g, p=16 → %g", u1, u16)
	}
	// Deeper buckets also help.
	if ExpectedUtilization(16, 1, 4) >= ExpectedUtilization(16, 4, 4) {
		t.Error("more entries per bucket should raise utilization")
	}
	if ExpectedUtilization(0, 3, 4) != 0 {
		t.Error("zero-dimension matrix should report 0")
	}
}

// TestUtilizationMatchesEmpirical compares Eq. 7 against the measured mean
// leaf utilization of a real HIGGS build. The formula models uniformly
// random buckets; hashed streams track it loosely, so assert agreement
// within a generous band rather than equality.
func TestUtilizationMatchesEmpirical(t *testing.T) {
	cfg := core.DefaultConfig()
	s := core.MustNew(cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		s.Insert(stream.Edge{
			S: uint64(rng.Intn(5000)), D: uint64(rng.Intn(5000)), W: 1,
			T: int64(i),
		})
	}
	measured := s.Stats().AvgLeafUtil
	predicted := ExpectedUtilization(cfg.D1, cfg.B, cfg.Maps*cfg.Maps)
	if measured < predicted*0.5 || measured > math.Min(1, predicted*1.5) {
		t.Fatalf("measured utilization %.3f vs predicted %.3f: off by more than 50%%", measured, predicted)
	}
}

// TestVertexErrorBoundEmpirical: Theorem 2 states the over-estimate
// exceeds ε·‖w‖′ with probability < 1/e. Check the violation rate over
// random vertex queries stays below that (with margin for sampling noise).
func TestVertexErrorBoundEmpirical(t *testing.T) {
	cfg := core.DefaultConfig()
	// Shrink the hash range so ε is large enough to observe collisions.
	cfg.D1 = 4
	cfg.F1 = 6
	s := core.MustNew(cfg)
	truth := exact.New()
	rng := rand.New(rand.NewSource(2))
	const n = 20000
	for i := 0; i < n; i++ {
		e := stream.Edge{S: uint64(rng.Intn(2000)), D: uint64(rng.Intn(2000)), W: 1, T: int64(i)}
		s.Insert(e)
		truth.Insert(e)
	}
	s.Finalize()
	violations, trials := 0, 0
	for v := uint64(0); v < 2000; v += 3 {
		got := s.VertexOut(v, 0, n)
		want := truth.VertexOut(v, 0, n)
		bound := VertexErrorBound(cfg.D1, cfg.F1, n) // ‖w‖′ = n (unit weights)
		trials++
		if float64(got-want) > bound {
			violations++
		}
	}
	rate := float64(violations) / float64(trials)
	if rate >= 1/math.E+0.1 {
		t.Fatalf("Theorem 2 violated empirically: rate %.3f ≥ 1/e", rate)
	}
}
