package core

import (
	"math"
	"testing"

	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestLemma8ReductionMeanMatchesFormula(t *testing.T) {
	r := rng.New(1)
	n, m := 200, 50
	const reps = 20000
	var s stats.Summary
	for i := 0; i < reps; i++ {
		s.Add(Lemma8Reduction(n, m, r))
	}
	want := Lemma8Bound(n, m) // Σ n/(r(r−1)) = n(1−1/m)
	if math.Abs(s.Mean()-want) > 4*s.SE() {
		t.Fatalf("mean = %g ± %g, want %g", s.Mean(), s.SE(), want)
	}
	if s.Mean() >= 2*float64(n) {
		t.Fatalf("mean %g exceeds the paper's 2n bound", s.Mean())
	}
}

func TestLemma8ReductionDominatesProtocol(t *testing.T) {
	// The reduction ignores helpful moves, so by Lemma 2 its completion
	// time stochastically dominates the real protocol's balancing time.
	// Check the means with matched instance size.
	n, m := 64, 32
	const reps = 300
	root := rng.New(2)
	var red, real stats.Summary
	for i := 0; i < reps; i++ {
		red.Add(Lemma8Reduction(n, m, root.Split()))
	}
	for i := 0; i < reps; i++ {
		r := root.Split()
		v := loadvec.AllInOne().Generate(n, m, nil)
		e := sim.NewEngine(v, RLS{}, r)
		real.Add(e.Run(sim.UntilPerfect(), 10_000_000).Time)
	}
	if real.Mean() > red.Mean()+3*(red.CI95()+real.CI95()) {
		t.Fatalf("protocol (%g) slower than its upper-bound reduction (%g)", real.Mean(), red.Mean())
	}
}

func TestLemma8ReductionPanicsOnDenseCase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for m > n")
		}
	}()
	Lemma8Reduction(4, 5, rng.New(3))
}

func TestLemma9ReductionMatchesMeanVar(t *testing.T) {
	r := rng.New(4)
	n, k, rem := 128, 4, 100
	const reps = 30000
	var s stats.Summary
	for i := 0; i < reps; i++ {
		s.Add(Lemma9Reduction(n, k, rem, r))
	}
	mean, variance := Lemma9ReductionMeanVar(n, k, rem)
	if math.Abs(s.Mean()-mean) > 5*s.SE() {
		t.Fatalf("mean = %g ± %g, want %g", s.Mean(), s.SE(), mean)
	}
	if math.Abs(s.Var()-variance) > 0.15*variance {
		t.Fatalf("var = %g, want %g", s.Var(), variance)
	}
	// Paper: E[T'] < Σ 1/(n−i) ≤ O(ln n).
	hBound := Harmonic(n-1) - Harmonic(n-rem-1)
	if mean >= hBound {
		t.Fatalf("exact mean %g should be below the harmonic bound %g", mean, hBound)
	}
}

func TestLemma9ReductionEdges(t *testing.T) {
	if Lemma9Reduction(8, 2, 0, rng.New(5)) != 0 {
		t.Fatal("zero remainder should cost zero time")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rem >= n")
		}
	}()
	Lemma9Reduction(8, 2, 8, rng.New(5))
}

func TestLemma10ReductionMatchesEquations8And9(t *testing.T) {
	r := rng.New(6)
	n, m := 64, 64*32
	const reps = 20000
	var s stats.Summary
	for i := 0; i < reps; i++ {
		s.Add(Lemma10Reduction(n, m, r))
	}
	mean, variance := Lemma10ReductionMeanVar(n, m)
	if math.Abs(s.Mean()-mean) > 5*s.SE() {
		t.Fatalf("mean = %g ± %g, want %g", s.Mean(), s.SE(), mean)
	}
	if math.Abs(s.Var()-variance) > 0.2*variance {
		t.Fatalf("var = %g, want %g", s.Var(), variance)
	}
	// Equation (8): E[T'] ≤ 2 ln n; equation (9): Var = O(1/∅).
	if mean > 2*math.Log(float64(n)) {
		t.Fatalf("mean %g exceeds 2 ln n", mean)
	}
	if variance > 10.0/float64(m/n) {
		t.Fatalf("variance %g not O(1/∅)", variance)
	}
}

func TestLemma10ReductionConcentratesPerLemma4(t *testing.T) {
	// Lemma 4 bounds P(T' ≥ E+δ) ≤ exp(λ²Var/4 − λδ/2) with λ the
	// smallest rate = (∅+1)(n−1)/n. Empirical tail must respect it.
	r := rng.New(7)
	n, m := 32, 32*16
	mean, variance := Lemma10ReductionMeanVar(n, m)
	lambda := float64(m/n+1) * float64(n-1) / float64(n)
	delta := 1.0
	bound := Lemma4Tail(lambda, variance, delta)
	const reps = 50000
	count := 0
	for i := 0; i < reps; i++ {
		if Lemma10Reduction(n, m, r) >= mean+delta {
			count++
		}
	}
	if got := float64(count) / reps; got > bound {
		t.Fatalf("tail %g exceeds Lemma 4 bound %g", got, bound)
	}
}

func TestLemma15ReductionMatchesMean(t *testing.T) {
	r := rng.New(10)
	n, m, startA, c := 32, 32*64, 500, 4.0
	const reps = 10000
	var s stats.Summary
	for i := 0; i < reps; i++ {
		s.Add(Lemma15Reduction(n, m, startA, c, r))
	}
	want := Lemma15ReductionMean(n, m, startA, c)
	if math.Abs(s.Mean()-want) > 5*s.SE() {
		t.Fatalf("mean = %g ± %g, want %g", s.Mean(), s.SE(), want)
	}
	// The Lemma 15 bound: O((ln n)²/∅). With the telescoping tail
	// Σ_{a>n} a^{-2} < 1/n, the mean is below (c ln n)²/∅.
	avg := float64(m) / float64(n)
	logn := c * math.Log(float64(n))
	if want > logn*logn/avg {
		t.Fatalf("mean %g exceeds (c ln n)²/∅ = %g", want, logn*logn/avg)
	}
}

func TestLemma15ReductionEdges(t *testing.T) {
	// startA ≤ n: nothing to decay, zero time.
	if Lemma15Reduction(16, 256, 16, 4, rng.New(11)) != 0 {
		t.Fatal("startA <= n should cost zero")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive constant")
		}
	}()
	Lemma15Reduction(16, 256, 32, 0, rng.New(11))
}

func TestLemma17ReductionMatchesLemma17Bound(t *testing.T) {
	r := rng.New(8)
	// pairs < n so the truncated sum sits strictly below Lemma17Bound's
	// full a=1..n sum (at pairs = n they coincide exactly).
	n, m, pairs := 100, 1000, 50
	const reps = 5000
	var s stats.Summary
	for i := 0; i < reps; i++ {
		s.Add(Lemma17Reduction(n, m, pairs, r))
	}
	// Full Lemma 17 sum over a=1..n with A starting at n... here pairs:
	want := 0.0
	avg := float64(m) / float64(n)
	for a := 1; a <= pairs; a++ {
		want += float64(n) / (avg * float64(a) * float64(a))
	}
	if math.Abs(s.Mean()-want) > 5*s.SE() {
		t.Fatalf("mean = %g ± %g, want %g", s.Mean(), s.SE(), want)
	}
	if s.Mean() > Lemma17Bound(n, m) {
		t.Fatalf("mean %g exceeds Lemma 17 bound %g", s.Mean(), Lemma17Bound(n, m))
	}
}

func TestLemma17ReductionDominatesProtocolPhase3(t *testing.T) {
	// From an A-pair 1-balanced start, the reduced process's mean bounds
	// the protocol's measured Phase 3 mean from above (the reduction
	// waits for worst-case events only).
	n, avg, pairs := 64, 16, 4
	m := n * avg
	const reps = 200
	root := rng.New(9)
	var red, real stats.Summary
	for i := 0; i < reps; i++ {
		red.Add(Lemma17Reduction(n, m, pairs, root.Split()))
	}
	for i := 0; i < reps; i++ {
		r := root.Split()
		v := loadvec.ImbalancedPairs(pairs).Generate(n, m, r)
		e := sim.NewEngine(v, RLS{}, r)
		real.Add(e.Run(sim.UntilPerfect(), 50_000_000).Time)
	}
	if real.Mean() > red.Mean()+3*(red.CI95()+real.CI95()) {
		t.Fatalf("protocol Phase 3 (%g) slower than the reduction bound (%g)",
			real.Mean(), red.Mean())
	}
}
