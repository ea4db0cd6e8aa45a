package sim

import (
	"repro/internal/loadvec"
	"repro/internal/rng"
)

// NewJumpEngine builds a rejection-free engine for plain RLS on the
// complete topology: instead of simulating every activation (almost all
// of which are rejected null moves near balance), it simulates only the
// *embedded jump chain* of productive moves — the object the paper's
// analysis is actually phrased over (Theorem 1, Lemmas 15–16).
//
// Each Step advances the run by one whole block of activations ending in
// a move:
//
//   - with W = Σ_v v·count[v]·C(v−1) the live move weight maintained by
//     the Config's level index, the probability that one activation moves
//     is p = W/(m·n), so the block length is Geometric(p);
//   - the elapsed time over k activations is the sum of k Exp(m) gaps,
//     i.e. a Gamma(k, m) (Erlang) variate, drawn in O(1);
//   - the productive (src, dst) pair is sampled exactly from the jump
//     chain's law: src level ∝ v·count[v]·C(v−1), dst level ∝ count[w]
//     for w ≤ v−1, uniform bins within each level.
//
// The induced law on (time, activations, configuration) at every *move*
// is identical to the direct engine's; only the per-activation trajectory
// between moves is not materialized. Stop conditions that depend solely
// on the configuration (UntilPerfect, UntilBalanced) therefore see
// exactly the same balancing-time distribution — experiment A4 KS-tests
// this — while time- or activation-count conditions are checked at move
// granularity and may overshoot by one block.
//
// Cost: O(log Δ) per move instead of O(1) per activation — near balance,
// where the direct engine wastes ~m·n/W activations per move, this is
// the difference between O(moves) and O(activations) for a whole run.
//
// Churn (AddBall/RemoveBall), ForceMove, and PostMove hooks work as in
// the direct engine; there is no activation sampler because no individual
// activation is ever drawn.
func NewJumpEngine(initial loadvec.Vector, r *rng.RNG) *Engine {
	if r == nil {
		panic("sim: NewJumpEngine with nil RNG")
	}
	cfg := loadvec.NewConfig(initial)
	cfg.EnableLevelIndex()
	return &Engine{cfg: cfg, r: r, jump: true}
}

// NewStrictJumpEngine builds a rejection-free engine for strict-tie RLS
// on the complete topology: a ball moves only if the destination is at
// least two below its source (§7's ">" rule, after [11, 12]). The block
// structure is identical to NewJumpEngine; only the move weight changes
// to W' = Σ_v v·count[v]·C(v−2) — the strict level index shifts the
// eligible-destination prefix by one level, and pair sampling and churn
// updates shift with it. W' = 0 exactly when max−min ≤ 1, i.e. at
// perfect balance, so UntilPerfect never stalls on a flat-weight state.
// Experiment A7 KS-tests the balancing-time law against the strict
// direct engine.
func NewStrictJumpEngine(initial loadvec.Vector, r *rng.RNG) *Engine {
	if r == nil {
		panic("sim: NewStrictJumpEngine with nil RNG")
	}
	cfg := loadvec.NewConfig(initial)
	cfg.EnableStrictLevelIndex()
	return &Engine{cfg: cfg, r: r, jump: true}
}

// Jump reports whether the engine runs in rejection-free jump mode.
func (e *Engine) Jump() bool { return e.jump }

// stepJump performs one jump-chain transition: a geometric block of null
// activations, its Erlang time gap, and the move that ends it. When no
// productive move exists (W = 0: all loads equal under the plain rule,
// max−min ≤ 1 under the strict rule, all neighbor pairs level on a
// graph) it falls back to a single null activation so time-targeted runs
// still advance.
//
// With a horizon set (SetHorizon), a block whose closing move would land
// beyond it is truncated exactly: the number of activations in the
// remaining window, conditioned on no move occurring there, is
// Poisson(m·(1−p)·(T−t)) by thinning — the null stream is a Poisson
// process of rate m·(1−p) independent of the move stream — and the clock
// lands on T itself. The drawn (k, gap) pair is discarded wholesale; by
// memorylessness the process after T restarts fresh, so continuing runs
// (Session) see the exact law.
func (e *Engine) stepJump() bool {
	m := float64(e.cfg.M())
	// The move weight and the per-activation denominator depend on the
	// variant: on the complete topology an activation proposes one of n
	// bins (p = W/(m·n), W from the level index, plain or strict gap); on
	// a Δ-regular graph it proposes one of Δ neighbor slots
	// (p = W_G/(m·Δ), W_G from the graph index).
	var w int64
	var denom float64
	if e.gidx != nil {
		w = e.gidx.total
		denom = float64(e.gidx.deg)
	} else {
		w = e.cfg.MoveWeight()
		denom = float64(e.cfg.N())
	}
	h := e.horizon
	if w == 0 {
		if h > 0 && e.time < h {
			// Flat configuration: every activation up to the horizon is null.
			// Tally them in one Poisson draw and land exactly on the horizon.
			e.activations += e.r.Poisson(m * (h - e.time))
			e.time = h
			return false
		}
		e.time += e.r.Exp(m)
		e.activations++
		return false
	}
	p := float64(w) / (m * denom)
	k := e.r.Geometric(p)
	gap := e.r.Erlang(k, m)
	if h > 0 && e.time < h && e.time+gap > h {
		e.activations += e.r.Poisson(m * (1 - p) * (h - e.time))
		e.time = h
		return false
	}
	e.time += gap
	e.activations += k
	var src, dst int
	if e.gidx != nil {
		src, dst = e.gidx.sample(e.r)
	} else {
		src, dst = e.cfg.SampleMovePair(e.r)
	}
	e.cfg.Move(src, dst)
	if e.gidx != nil {
		e.gidx.update(e.cfg, src, dst)
	}
	e.moves++
	if e.PostMove != nil {
		e.PostMove(e, src, dst)
	}
	return true
}
