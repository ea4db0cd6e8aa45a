package core

import (
	"math"

	"repro/internal/sim"
)

// PhaseTimes records when a run first crosses each boundary of the
// paper's three-phase analysis (§6). Negative values mean the boundary
// was never reached.
type PhaseTimes struct {
	// LogBalanced is the first time disc ≤ 96·ln n — the Phase 1 target
	// (Lemmas 10 and 12 both land at O(ln n)-balancedness; 96 ln n is the
	// explicit constant of Lemma 10).
	LogBalanced float64
	// OneBalanced is the first time disc ≤ 1 (Phase 2 target, Lemma 14).
	OneBalanced float64
	// Perfect is the first time disc < 1 (Phase 3 target, Theorem 1's T).
	Perfect float64
}

// PhaseTracker fills in PhaseTimes as a run goes. It reads only the
// discrepancy and the perfect-balance test, both O(1), so every Runner
// run attaches one. The §3 monotonicity checks live in MonotoneWatch.
type PhaseTracker struct {
	Times PhaseTimes

	logTarget float64 // 96 ln n
}

// NewPhaseTracker builds a tracker for an engine about to run and attaches
// itself to the engine's PostMove hook (chaining any existing hook).
// Discrepancy only changes on moves, so crossing times are move-exact.
func NewPhaseTracker(e *sim.Engine) *PhaseTracker {
	t := newPhaseTracker(e.Cfg().N())
	observe := func(e *sim.Engine) { t.observe(e.Time(), e.Cfg().Disc(), e.Cfg().IsPerfect()) }
	observe(e) // the initial configuration may already satisfy targets
	chainPostMove(e, observe)
	return t
}

// NewShardedPhaseTracker attaches a tracker to the sharded engine's
// PostCheck: with P > 1 crossings are observed at epoch barriers (the
// mode's granularity), with P = 1 at every activation — matching the
// direct engine's move-exact times.
func NewShardedPhaseTracker(e *sim.Sharded) *PhaseTracker {
	t := newPhaseTracker(e.N())
	observe := func(s *sim.Sharded) { t.observe(s.Time(), s.Disc(), s.IsPerfect()) }
	observe(e)
	e.PostCheck = observe
	return t
}

func newPhaseTracker(n int) *PhaseTracker {
	return &PhaseTracker{
		Times:     PhaseTimes{LogBalanced: -1, OneBalanced: -1, Perfect: -1},
		logTarget: 96 * math.Log(float64(n)),
	}
}

// observe records every boundary the state (disc, perfect) at time now
// crosses for the first time — the one crossing rule of both engines.
func (t *PhaseTracker) observe(now, disc float64, perfect bool) {
	if t.Times.LogBalanced < 0 && disc <= t.logTarget {
		t.Times.LogBalanced = now
	}
	if t.Times.OneBalanced < 0 && disc <= 1 {
		t.Times.OneBalanced = now
	}
	if t.Times.Perfect < 0 && perfect {
		t.Times.Perfect = now
	}
}

// MonotoneWatch verifies, move by move, the §3 monotonicity observations
// (discrepancy never increases, the minimum load never decreases, the
// maximum never increases) and Lemma 16's claim that the potential
// 3A − k − h never increases; any violation is counted. Its potential
// read scans the load histogram, O(max − min) per move, so only analysis
// runs attach it — never a Runner or Session.
type MonotoneWatch struct {
	// Violation counters (expected to stay zero under plain RLS).
	DiscIncreases      int
	MinDecreases       int
	MaxIncreases       int
	PotentialIncreases int

	prevDisc, prevPotential float64
	prevMin, prevMax        int
}

// WatchMonotone attaches a MonotoneWatch to the engine's PostMove hook
// (chaining any existing hook); the configuration at attach time is the
// baseline of the first comparison.
func WatchMonotone(e *sim.Engine) *MonotoneWatch {
	cfg := e.Cfg()
	w := &MonotoneWatch{
		prevDisc:      cfg.Disc(),
		prevPotential: cfg.Potential(),
		prevMin:       cfg.Min(),
		prevMax:       cfg.Max(),
	}
	chainPostMove(e, w.observe)
	return w
}

func (w *MonotoneWatch) observe(e *sim.Engine) {
	cfg := e.Cfg()
	disc, pot := cfg.Disc(), cfg.Potential()
	if disc > w.prevDisc+1e-9 {
		w.DiscIncreases++
	}
	if cfg.Min() < w.prevMin {
		w.MinDecreases++
	}
	if cfg.Max() > w.prevMax {
		w.MaxIncreases++
	}
	if pot > w.prevPotential+1e-9 {
		w.PotentialIncreases++
	}
	w.prevDisc, w.prevPotential = disc, pot
	w.prevMin, w.prevMax = cfg.Min(), cfg.Max()
}

// chainPostMove runs observe after the engine's existing PostMove hook,
// if any, on every protocol move.
func chainPostMove(e *sim.Engine, observe func(*sim.Engine)) {
	prev := e.PostMove
	e.PostMove = func(e *sim.Engine, src, dst int) {
		if prev != nil {
			prev(e, src, dst)
		}
		observe(e)
	}
}
