package core

import (
	"math"
	"testing"

	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file holds the *reduced processes* that the paper's proofs
// construct via Lemma 2: simplified dynamics in which inconvenient moves
// are ignored (reversible by destructive moves) and only one kind of
// progress event is awaited. They are test oracles: each reduction's
// hitting time has an exact distributional characterization, and the
// tests below check it against both the paper's formulas and the full
// protocol's measured behaviour, which Lemma 2 says it dominates.

// Lemma8Reduction simulates the reduced process from the proof of
// Lemma 8 (m ≤ n): all balls start in one bin, and we wait for each ball
// to move to its own empty bin, ignoring every other move. With r balls
// left in the stack there are ≥ r−1 empty bins among the other n−1 bins,
// and the paper waits for one of the r balls to activate and hit one of
// exactly r−1 designated empty bins: an Exp(r(r−1)/n) wait. The total is
// Σ_{r=2..m} Exp(r(r−1)/n), with mean Σ n/(r(r−1)) = n(1−1/m) < 2n.
//
// It returns the sampled total time.
func Lemma8Reduction(n, m int, r *rng.RNG) float64 {
	if m > n {
		panic("core: Lemma8Reduction requires m <= n")
	}
	total := 0.0
	for balls := m; balls >= 2; balls-- {
		rate := float64(balls) * float64(balls-1) / float64(n)
		total += r.Exp(rate)
	}
	return total
}

// Lemma17Reduction simulates the Phase 3 reduced process: A imbalanced
// (+1/−1) pairs; with a pairs remaining there are > ∅·a balls that fix a
// hole with probability a/n upon activation, so the next fix waits at
// most Exp(∅a²/n) (the paper's bound; the reduction uses exactly that
// rate). Total: Σ_{a=1..A} Exp(∅a²/n), mean Σ n/(∅a²) ≤ (π²/6)n/∅.
func Lemma17Reduction(n, m, pairs int, r *rng.RNG) float64 {
	avg := float64(m) / float64(n)
	total := 0.0
	for a := pairs; a >= 1; a-- {
		rate := avg * float64(a) * float64(a) / float64(n)
		total += r.Exp(rate)
	}
	return total
}

// Lemma17Bound returns Σ_{A=1..n} n/(∅·A²) ≤ (π²/6)·n/∅, the Lemma 17
// bound on the expected time of Phase 3 summed over the decreasing number
// A of imbalanced bin pairs.
func Lemma17Bound(n, m int) float64 {
	avg := float64(m) / float64(n)
	sum := 0.0
	for a := 1; a <= n; a++ {
		sum += float64(n) / (avg * float64(a) * float64(a))
	}
	return sum
}

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
