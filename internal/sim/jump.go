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
// Each Step advances the run to the next move:
//
//   - with W = Σ_v v·count[v]·C(v−1) the live move weight maintained by
//     the Config's level index, each of the m activation clocks proposes
//     a productive move at rate W/(m·n), so moves arrive at rate
//     R = W/n and the time to the next one is one Exp(R) draw;
//   - the productive (src, dst) pair is sampled exactly from the jump
//     chain's law: src level ∝ v·count[v]·C(v−1), dst level ∝ count[w]
//     for w ≤ v−1, uniform bins within each level;
//   - the null activations in between are, by Poisson thinning, a
//     Poisson process of rate m − R independent of the moves. The engine
//     accumulates their mean, Λ += (m − R)·gap, and Advance tallies them
//     with one Poisson(Λ) draw at the end of each run.
//
// The induced law on (time, configuration) at every move is identical to
// the direct engine's, and so is the law of the activation count at the
// end of every run; only the per-activation trajectory between moves is
// not materialized. Stop conditions that depend solely on the
// configuration (UntilPerfect, UntilBalanced) therefore see exactly the
// same balancing-time distribution — experiment A4 KS-tests this — while
// time- or activation-count conditions are checked at move granularity:
// mid-run, Activations reads ⌊Λ⌋ in place of the tally, and a time
// target may be overshot by one gap unless SetHorizon clamps it.
//
// Cost: O(log Δ) per move instead of O(1) per activation — near balance,
// where the direct engine wastes ~m·n/W activations per move, this is
// the difference between O(moves) and O(activations) for a whole run.
// Per move the level index pays one descent of its B-ary prefix-sum tree
// (B = 16; at most B sums scanned per tree level, and a level range of up
// to 16 is a single scan) over the per-level move weights for the source
// level, an O(1) prefix-count read and a binary search over [min, v−1]
// for the destination level (a few levels once loads sit near the
// average), and at most four move-weight updates of one write per tree
// level, each reading the old weight as an O(1) leaf — none for a
// neutral move, which changes no level count. It keeps no ball-sampling
// tree unless a session draws a random ball (RandomBin).
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
// least two below its source (§7's ">" rule, after [11, 12]). The Exp
// gap and the null tally are those of NewJumpEngine; only the move
// weight changes to W' = Σ_v v·count[v]·C(v−2) — the strict level index
// shifts the eligible-destination prefix by one level, and pair sampling
// and churn updates shift with it. W' = 0 exactly when max−min ≤ 1, i.e. at
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

// stepJump performs one jump-chain transition: an Exp(R) gap to the next
// move, with R = W/denom ≤ m the move rate, the null mass (m − R)·gap
// added to Λ, and the move itself, counted as one activation. When no
// productive move exists (W = 0: all loads equal under the plain rule,
// max−min ≤ 1 under the strict rule, all neighbor pairs level on a
// graph) it falls back to a single null activation so time-targeted runs
// still advance.
//
// With a horizon set (SetHorizon), a gap that would cross it is
// discarded: the window up to the horizon holds no move, so its null
// mass is (m − R)·(T − t) — m·(T − t) from a flat state — and the clock
// lands on T itself. By memorylessness the process after T restarts
// fresh, so continuing runs (Session) see the exact law.
func (e *Engine) stepJump() bool {
	m := float64(e.cfg.M())
	// The move weight and the per-activation denominator depend on the
	// variant: on the complete topology an activation proposes one of n
	// bins (R = W/n, W from the level index, plain or strict gap); on a
	// Δ-regular graph it proposes one of Δ neighbor slots (R = W_G/Δ, W_G
	// from the graph index).
	var w int64
	var denom float64
	if e.gidx != nil {
		w = e.gidx.wt.Total()
		denom = float64(e.gidx.deg)
	} else {
		w = e.cfg.MoveWeight()
		denom = float64(e.cfg.N())
	}
	h := e.horizon
	if w == 0 {
		if h > 0 && e.time < h {
			// Flat configuration: every activation up to the horizon is null.
			e.null += m * (h - e.time)
			e.time = h
			return false
		}
		e.time += e.r.Exp(m)
		e.activations++
		return false
	}
	rate := float64(w) / denom
	gap := e.r.Exp(rate)
	if h > 0 && e.time < h && e.time+gap > h {
		e.null += (m - rate) * (h - e.time)
		e.time = h
		return false
	}
	e.time += gap
	e.null += (m - rate) * gap
	e.activations++
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
