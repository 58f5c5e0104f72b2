// Package analysis implements part of the paper's theoretical analysis
// (§V) as executable formulas: the error-bound parameterization of
// Theorems 2–3 and the expected matrix utilization of Eq. 6–7. Tests
// cross-check the formulas against empirically built structures.
package analysis

import "math"

// HashRange returns Z = d1·2^F1, the size of the combined address +
// fingerprint space at leaf level (§V-D).
func HashRange(d1 uint32, f1 uint) float64 {
	return float64(d1) * math.Pow(2, float64(f1))
}

// Epsilon returns the ε for which a (d1, F1) configuration satisfies the
// Theorem 2 guarantee: F1 = log2(e/(d1·ε)) ⇔ ε = e/Z.
func Epsilon(d1 uint32, f1 uint) float64 {
	return math.E / HashRange(d1, f1)
}

// VertexErrorBound returns the Theorem 2 additive bound ε·‖w‖′ on vertex
// query over-estimation (held with probability ≥ 1 − 1/e), where
// weightSum is the total in-range weight ‖w‖′.
func VertexErrorBound(d1 uint32, f1 uint, weightSum int64) float64 {
	return Epsilon(d1, f1) * float64(weightSum)
}

// EdgeErrorBound returns the Theorem 3 additive bound ε²·‖w‖′/e on edge
// query over-estimation (held with probability ≥ 1 − 1/e).
func EdgeErrorBound(d1 uint32, f1 uint, weightSum int64) float64 {
	eps := Epsilon(d1, f1)
	return eps * eps * float64(weightSum) / math.E
}

// ExpectedUtilization returns E(α) from Eq. 6–7: the expected fraction of
// a d×d matrix's b·d² slots filled when insertion stops at the first
// failure, with p = r² candidate buckets per edge and b entries per
// bucket. It evaluates the geometric-distribution expectation directly.
func ExpectedUtilization(d uint32, b, p int) float64 {
	n := float64(b) * float64(d) * float64(d) // total slots
	if n == 0 {
		return 0
	}
	bp := float64(b * p) // exponent in Eq. 6
	// Pr(first failure at edge k) = Π_{i<k}(1−((i−1)/n)^bp)·((k−1)/n)^bp.
	// E(k) accumulates k·Pr(X=k); survival tracks the running product.
	survival := 1.0
	ek := 0.0
	for k := 1.0; k <= n; k++ {
		pf := math.Pow((k-1)/n, bp)
		ek += k * survival * pf
		survival *= 1 - pf
		if survival < 1e-12 {
			break
		}
	}
	// Residual mass: insertion never failed within n edges.
	ek += n * survival
	return ek / n
}
