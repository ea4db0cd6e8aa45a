package stats

import "sort"

// ECDF is an empirical cumulative distribution function over a finite
// sample. It supports point evaluation and the one-sided dominance
// comparison used to validate the Destructive Majorization Lemma.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample (copied, then sorted).
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns F(x) = P(X <= x) under the empirical measure.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Number of samples <= x.
	idx := sort.SearchFloat64s(e.sorted, x)
	for idx < len(e.sorted) && e.sorted[idx] == x {
		idx++
	}
	return float64(idx) / float64(len(e.sorted))
}

// DominanceReport describes how close sample B comes to stochastically
// dominating sample A.
type DominanceReport struct {
	// MaxViolation is max over x of F_B(x) - F_A(x). If B truly dominates A
	// (B >= A stochastically), F_B <= F_A pointwise, so violations are <= 0
	// up to sampling noise.
	MaxViolation float64
	// At is a location achieving MaxViolation.
	At float64
}

// Dominates reports whether sample b stochastically dominates sample a
// within a noise tolerance eps: it checks F_b(x) <= F_a(x) + eps at every
// sample point. Exact dominance corresponds to eps = 0; Monte-Carlo
// validation should pass an eps of a few standard errors
// (~ sqrt(ln(n)/n) for a Dvoretzky–Kiefer–Wolfowitz style band).
func Dominates(a, b []float64, eps float64) (bool, DominanceReport) {
	fa := NewECDF(a)
	fb := NewECDF(b)
	rep := DominanceReport{MaxViolation: 0}
	check := func(x float64) {
		v := fb.At(x) - fa.At(x)
		if v > rep.MaxViolation {
			rep.MaxViolation = v
			rep.At = x
		}
	}
	for _, x := range fa.sorted {
		check(x)
	}
	for _, x := range fb.sorted {
		check(x)
	}
	return rep.MaxViolation <= eps, rep
}

// DKWEps returns the half-width of a Dvoretzky–Kiefer–Wolfowitz confidence
// band at level alpha for a sample of size n: sqrt(ln(2/alpha) / (2n)).
// Comparing two ECDFs, the sum of both bands bounds the sampling noise in
// a dominance check.
func DKWEps(n int, alpha float64) float64 {
	if n <= 0 {
		return 1
	}
	return sqrt(ln(2/alpha) / (2 * float64(n)))
}
