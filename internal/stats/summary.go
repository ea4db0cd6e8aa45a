// Package stats provides the statistical machinery that turns Monte-Carlo
// simulation output into the kinds of statements the paper makes:
// means with confidence intervals, tail quantiles, empirical CDFs with
// one-sided stochastic-dominance tests (for the Destructive Majorization
// Lemma), and log-log regression for estimating growth exponents.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds streaming moments of a sample. The zero value is an empty
// summary ready for use.
type Summary struct {
	n        int
	mean, m2 float64 // Welford running mean and sum of squared deviations
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddAll incorporates every observation in xs.
func (s *Summary) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// SE returns the standard error of the mean.
func (s *Summary) SE() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of a ~95% normal-approximation confidence
// interval for the mean. For the replication counts used by the harness
// (>= 16) the normal approximation is adequate.
func (s *Summary) CI95() float64 { return 1.96 * s.SE() }

// String formats the summary as "mean ± ci95 (n=..)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.CI95(), s.n)
}

// Quantile returns the q-th empirical quantile (0 <= q <= 1) of xs using
// linear interpolation between order statistics. xs need not be sorted;
// it is not modified. It panics on an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
