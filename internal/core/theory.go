package core

import "math"

// This file provides the paper's closed-form quantities as executable
// predictors. Experiments compare measured balancing times against these.

// Harmonic returns the k-th harmonic number H_k = Σ_{i=1..k} 1/i
// (H_0 = 0). For large k it switches to the asymptotic expansion
// ln k + γ + 1/(2k) − 1/(12k²), accurate to well below 1e-12 there.
func Harmonic(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k <= 256 {
		h := 0.0
		for i := 1; i <= k; i++ {
			h += 1 / float64(i)
		}
		return h
	}
	const gamma = 0.57721566490153286060651209008240243
	kf := float64(k)
	return math.Log(kf) + gamma + 1/(2*kf) - 1/(12*kf*kf)
}

// Theorem1Expectation returns ln(n) + n²/m, the quantity that Theorem 1
// proves is Θ(E[T]) — the expected time to perfect balance from any
// initial configuration.
func Theorem1Expectation(n, m int) float64 {
	return math.Log(float64(n)) + float64(n)*float64(n)/float64(m)
}

// Theorem1WHP returns ln(n) + ln(n)·n²/m, the quantity that Theorem 1
// proves bounds T with high probability.
func Theorem1WHP(n, m int) float64 {
	ln := math.Log(float64(n))
	return ln + ln*float64(n)*float64(n)/float64(m)
}

// LowerBoundAllInOne returns the §4 lower bound for the all-balls-in-one-
// bin start: at least m − ∅ balls must activate, which takes expected
// time Σ_{k=∅+1..m} 1/k = H_m − H_⌊∅⌋ = Ω(ln n).
func LowerBoundAllInOne(n, m int) float64 {
	avg := m / n
	return Harmonic(m) - Harmonic(avg)
}

// LowerBoundDeltaPair returns the §4 lower bound for the configuration
// with one bin at ∅+1 and one at ∅−1: perfect balance requires one of
// the ∅+1 balls in the overloaded bin to activate and sample the
// underloaded bin, an Exp((∅+1)/n) event with mean n/(∅+1) = Ω(n²/m).
func LowerBoundDeltaPair(n, m int) float64 {
	avg := float64(m) / float64(n)
	return float64(n) / (avg + 1)
}

// Lemma8Bound returns the Lemma 8 upper bound on E[T] for m ≤ n:
// Σ_{r=2..m} n/(r(r−1)) < 2n, the expected time for each ball to find its
// own empty bin when all balls start together.
func Lemma8Bound(n, m int) float64 {
	sum := 0.0
	for r := 2; r <= m; r++ {
		sum += float64(n) / (float64(r) * float64(r-1))
	}
	return sum
}

// Lemma13Shrink returns 2·sqrt(x·ln n), the one-epoch discrepancy target
// of Lemma 13 (valid for x ≥ 4 ln n), and Lemma13EpochLength returns the
// epoch duration ln((∅+x)/(∅−x)) used there.
func Lemma13Shrink(x float64, n int) float64 {
	return 2 * math.Sqrt(x*math.Log(float64(n)))
}

// Lemma13EpochLength returns ln(∅+x) − ln(∅−x), the length of the
// Lemma 13 epoch that shrinks discrepancy from x to 2·sqrt(x ln n).
func Lemma13EpochLength(avg, x float64) float64 {
	return math.Log(avg+x) - math.Log(avg-x)
}
