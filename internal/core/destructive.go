package core

import (
	"fmt"

	"repro/internal/sim"
)

// An Adversary injects destructive moves into a run, in the sense of
// Lemma 2: after each protocol move it may perform an arbitrary number of
// destructive moves (reversals of valid protocol moves). The Destructive
// Majorization Lemma states that no adversary — even one with full
// knowledge of the protocol's randomness — can make the discrepancy
// profile stochastically smaller; experiment DML validates this for the
// adversaries below.
type Adversary interface {
	// Act runs after a protocol move src→dst and may call e.ForceMove with
	// destructive moves only.
	Act(e *sim.Engine, src, dst int)
	// Name identifies the adversary.
	Name() string
}

// Attach installs the adversary on an engine, asserting (in the hook)
// that every injected move is destructive at the moment it is made.
func Attach(e *sim.Engine, adv Adversary) {
	e.PostMove = func(e *sim.Engine, src, dst int) { adv.Act(e, src, dst) }
}

// checkedForce panics unless src→dst is destructive in the current
// configuration, then performs it. All adversaries funnel through this,
// so a buggy adversary cannot silently perform *helpful* moves and
// invalidate the DML experiments.
func checkedForce(e *sim.Engine, src, dst int) {
	if !IsDestructiveMove(e.Cfg().Loads(), src, dst) {
		panic(fmt.Sprintf("core: adversary attempted non-destructive move %d→%d (loads %d→%d)",
			src, dst, e.Cfg().Load(src), e.Cfg().Load(dst)))
	}
	e.ForceMove(src, dst)
}

// RandomAdversary attempts a fixed number of uniformly random destructive
// moves after each protocol move (attempts whose sampled pair is not
// destructive are skipped).
type RandomAdversary struct {
	// Attempts is the number of candidate moves tried per protocol move.
	Attempts int
}

// Act implements Adversary.
func (a RandomAdversary) Act(e *sim.Engine, _, _ int) {
	cfg := e.Cfg()
	n := cfg.N()
	for i := 0; i < a.Attempts; i++ {
		src := e.RNG().Intn(n)
		dst := e.RNG().Intn(n)
		if src == dst || cfg.Load(src) == 0 {
			continue
		}
		if IsDestructiveMove(cfg.Loads(), src, dst) {
			checkedForce(e, src, dst)
		}
	}
}

// Name implements Adversary.
func (a RandomAdversary) Name() string { return fmt.Sprintf("random(%d)", a.Attempts) }

// ReverseAdversary undoes each protocol move with probability P. The
// reversal of a just-performed protocol move is always destructive
// (ℓ'_dst ≤ ℓ'_src + 1 holds by the move's own legality), so with P = 1
// this adversary stalls the process completely.
type ReverseAdversary struct {
	// P is the per-move reversal probability.
	P float64
}

// Act implements Adversary.
func (a ReverseAdversary) Act(e *sim.Engine, src, dst int) {
	if e.RNG().Bernoulli(a.P) {
		checkedForce(e, dst, src)
	}
}

// Name implements Adversary.
func (a ReverseAdversary) Name() string { return fmt.Sprintf("reverse(%.2g)", a.P) }

// ConcentratorAdversary moves balls toward the currently fullest bin:
// after each protocol move it relocates up to Budget balls from random
// non-empty bins into a maximum-load bin. Moving into a maximum-load bin
// is always destructive. This is the adversary implicit in the proofs of
// Lemmas 9–11, which use destructive moves to push all balls into one bin.
type ConcentratorAdversary struct {
	// Budget is the number of balls moved per protocol move.
	Budget int
}

// Act implements Adversary.
func (a ConcentratorAdversary) Act(e *sim.Engine, _, _ int) {
	cfg := e.Cfg()
	n := cfg.N()
	for i := 0; i < a.Budget; i++ {
		// Locate a max bin (scan; adversaries are not on the hot path of
		// the headline experiments).
		maxBin := 0
		for b := 1; b < n; b++ {
			if cfg.Load(b) > cfg.Load(maxBin) {
				maxBin = b
			}
		}
		src := e.RNG().Intn(n)
		if src == maxBin || cfg.Load(src) == 0 {
			continue
		}
		checkedForce(e, src, maxBin)
	}
}

// Name implements Adversary.
func (a ConcentratorAdversary) Name() string { return fmt.Sprintf("concentrate(%d)", a.Budget) }
