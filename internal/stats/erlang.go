package stats

import "math"

// ErlangCDF returns P(X ≤ x) for X ~ Erlang(k, 1), the sum of k
// independent Exp(1) variables, in closed form:
// 1 − e^{−x} Σ_{j<k} x^j/j!, with the terms in log space so large k
// stays finite.
func ErlangCDF(k int64, x float64) float64 {
	if x <= 0 {
		return 0
	}
	lx := math.Log(x)
	var s float64
	for j := int64(0); j < k; j++ {
		lg, _ := math.Lgamma(float64(j + 1))
		s += math.Exp(-x + float64(j)*lx - lg)
	}
	return 1 - s
}

// ErlangQuantile returns the p-quantile of Erlang(k, 1) (0 < p < 1) by
// bisection on ErlangCDF.
func ErlangQuantile(k int64, p float64) float64 {
	lo, hi := 0.0, float64(k)+1
	for ErlangCDF(k, hi) < p {
		hi *= 2
	}
	for i := 0; i < 100 && hi-lo > 1e-12*hi; i++ {
		mid := (lo + hi) / 2
		if ErlangCDF(k, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
