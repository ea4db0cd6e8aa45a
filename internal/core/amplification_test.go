package core

// Tests operationalizing Lemmas 6 and 7 (the amplification arguments):
// balancedness classes are closed under RLS, so epochs restart cleanly
// and Markov's inequality turns expectation bounds into per-epoch success
// probabilities ≥ 1/2 — giving the w.h.p. bounds of Theorem 1.

import (
	"testing"

	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Lemma 6/7's "crucial observation": if ℓ(0) is d-balanced then ℓ(t) is
// d-balanced for all t (discrepancy never increases under RLS).
func TestBalancednessClosedUnderRLS(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		r := rng.New(seed)
		v := loadvec.OneChoice().Generate(32, 320, r)
		d := v.Disc()
		e := sim.NewEngine(v, RLS{}, r)
		for i := 0; i < 3000; i++ {
			e.Step()
			if e.Cfg().Disc() > d+1e-9 {
				t.Fatalf("seed %d: left the %g-balanced class (disc %g)", seed, d, e.Cfg().Disc())
			}
		}
	}
}

// Markov epoch argument (heart of Lemmas 6 and 7): an epoch of length
// 2·E[T] succeeds (reaches the target) with probability ≥ 1/2,
// regardless of history. Estimate E[T], then measure the one-epoch
// success frequency.
func TestMarkovEpochSuccessProbability(t *testing.T) {
	const n, m = 16, 64
	const reps = 300
	root := rng.New(99)
	// Pass 1: estimate E[T].
	total := 0.0
	for i := 0; i < reps; i++ {
		r := root.Split()
		v := loadvec.AllInOne().Generate(n, m, nil)
		e := sim.NewEngine(v, RLS{}, r)
		total += e.Run(sim.UntilPerfect(), 10_000_000).Time
	}
	meanT := total / reps
	// Pass 2: from fresh worst-case starts, count success within 2·Ê[T].
	success := 0
	for i := 0; i < reps; i++ {
		r := root.Split()
		v := loadvec.AllInOne().Generate(n, m, nil)
		e := sim.NewEngine(v, RLS{}, r)
		e.Run(sim.UntilTime(2*meanT), 10_000_000)
		if e.Cfg().IsPerfect() {
			success++
		}
	}
	// Markov: P(T > 2E[T]) ≤ 1/2 ⇒ success ≥ 1/2, minus estimation and
	// sampling noise (≤ ~0.08 at 300 reps).
	frac := float64(success) / reps
	if frac < 0.42 {
		t.Fatalf("one-epoch success %.3f < 1/2 − noise (Ê[T] = %g)", frac, meanT)
	}
}

// Lemma 6's conclusion at small scale: the probability that log2(n)
// consecutive epochs all fail is ≤ 1/n. With per-epoch failure ≤ 1/2
// and independence-after-restart, running 2·Ê[T]·log2 n should almost
// always finish.
func TestLemma6EpochChaining(t *testing.T) {
	const n, m = 16, 64
	const reps = 200
	root := rng.New(7)
	// Rough Ê[T] from a few runs.
	est := 0.0
	for i := 0; i < 50; i++ {
		r := root.Split()
		v := loadvec.AllInOne().Generate(n, m, nil)
		e := sim.NewEngine(v, RLS{}, r)
		est += e.Run(sim.UntilPerfect(), 10_000_000).Time
	}
	est /= 50
	horizon := 2 * est * 4 // log2(16) = 4 epochs
	failures := 0
	for i := 0; i < reps; i++ {
		r := root.Split()
		v := loadvec.AllInOne().Generate(n, m, nil)
		e := sim.NewEngine(v, RLS{}, r)
		e.Run(sim.UntilTime(horizon), 50_000_000)
		if !e.Cfg().IsPerfect() {
			failures++
		}
	}
	// Bound is reps/n = 12.5 expected failures; allow 3x.
	if failures > 3*reps/n {
		t.Fatalf("%d/%d runs missed the 2·E[T]·log2(n) horizon (bound ~%d)", failures, reps, reps/n)
	}
}
