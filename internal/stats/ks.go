package stats

import (
	"math"
	"sort"
)

// KSStatistic returns the two-sample Kolmogorov–Smirnov statistic
// D = sup_x |F_a(x) − F_b(x)| between the empirical CDFs of a and b.
// The same-law experiments (A4, A5, A7, A8) use it to compare whole
// distributions rather than just means.
func KSStatistic(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		panic("stats: KSStatistic with empty sample")
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	var d float64
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		x := sa[i]
		if sb[j] < x {
			x = sb[j]
		}
		for i < len(sa) && sa[i] <= x {
			i++
		}
		for j < len(sb) && sb[j] <= x {
			j++
		}
		fa := float64(i) / float64(len(sa))
		fb := float64(j) / float64(len(sb))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}

// KSCritical returns the large-sample critical value for the two-sample
// KS test at significance alpha: c(α)·sqrt((n_a+n_b)/(n_a·n_b)) with
// c(α) = sqrt(−ln(α/2)/2). Samples with KSStatistic below this are
// consistent with a common distribution at level alpha.
func KSCritical(na, nb int, alpha float64) float64 {
	if na <= 0 || nb <= 0 {
		panic("stats: KSCritical with non-positive sample size")
	}
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	return c * math.Sqrt(float64(na+nb)/float64(na)/float64(nb))
}

// SameDistribution reports whether the two samples pass a two-sample KS
// test at significance alpha (true = cannot reject that they share a law).
func SameDistribution(a, b []float64, alpha float64) (bool, float64) {
	d := KSStatistic(a, b)
	return d <= KSCritical(len(a), len(b), alpha), d
}
