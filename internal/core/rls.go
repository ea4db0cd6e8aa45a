// Package core implements the paper's contribution: the Randomized Local
// Search (RLS) protocol of §3, the destructive-move machinery and coupling
// of the Destructive Majorization Lemma (Lemma 2, §4), the phase
// decomposition of the analysis (§6), and the closed-form bounds of
// Theorem 1, the §4 lower bounds and Lemmas 8 and 13 as executable
// predictors.
package core

import (
	"repro/internal/loadvec"
	"repro/internal/rng"
)

// RLS is the paper's protocol (§3): upon activation, a ball in bin i
// samples a destination bin i′ uniformly at random and moves iff
// ℓ_i ≥ ℓ_{i′} + 1. Note the tie rule: a move between bins with loads
// (v+1, v) is permitted (it is a *neutral* move, simultaneously a valid
// protocol move and a destructive move — see Figure 1).
type RLS struct{}

// Decide implements sim.Mover.
func (RLS) Decide(cfg *loadvec.Config, src int, r *rng.RNG) (int, bool) {
	dst := r.Intn(cfg.N())
	return dst, cfg.Load(src) >= cfg.Load(dst)+1
}

// StrictRLS is the [12]/[11] variant discussed in §3: movement from i to
// i′ only if ℓ_i > ℓ_{i′} + 1 (improvement by at least 2, i.e. neutral
// moves are forbidden). The paper remarks that, bins and balls being
// identical, both variants have precisely the same balancing time; the
// A2 ablation experiment checks this empirically.
type StrictRLS struct{}

// Decide implements sim.Mover.
func (StrictRLS) Decide(cfg *loadvec.Config, src int, r *rng.RNG) (int, bool) {
	dst := r.Intn(cfg.N())
	return dst, cfg.Load(src) > cfg.Load(dst)+1
}
