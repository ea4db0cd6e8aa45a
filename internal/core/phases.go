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

// Phase is the furthest §6 boundary a configuration has crossed. The
// boundaries nest — 96·ln n ≥ 1 once n ≥ 2, and one bin always has
// disc 0 — so a later phase implies every earlier one.
type Phase uint8

const (
	Unbalanced  Phase = iota // disc > 96·ln n
	LogBalanced              // disc ≤ 96·ln n, the Phase 1 target
	OneBalanced              // disc ≤ 1, the Phase 2 target
	Perfect                  // disc < 1, the Phase 3 target (Theorem 1's T)
)

var phaseNames = [...]string{"unbalanced", "log-balanced", "one-balanced", "perfect"}

func (p Phase) String() string { return phaseNames[p] }

// LogBalancedTarget is the Phase 1 boundary 96·ln n over n bins, the
// explicit constant of Lemma 10.
func LogBalancedTarget(n int) float64 { return 96 * math.Log(float64(n)) }

// PhaseOf places a discrepancy over n bins against the §6 boundaries.
func PhaseOf(n int, disc float64) Phase { return phaseAt(disc, LogBalancedTarget(n)) }

// phaseAt is PhaseOf with the Phase 1 boundary already computed, so a
// tracker pays no logarithm per move.
func phaseAt(disc, logTarget float64) Phase {
	switch {
	case disc < 1:
		return Perfect
	case disc <= 1:
		return OneBalanced
	case disc <= logTarget:
		return LogBalanced
	}
	return Unbalanced
}

// PhaseTracker fills in PhaseTimes as a run goes. It reads only the
// discrepancy, O(1), so every Runner run attaches one. The §3
// monotonicity checks live in MonotoneWatch.
type PhaseTracker struct {
	Times PhaseTimes

	logTarget float64 // LogBalancedTarget(n)
}

// NewPhaseTracker builds a tracker for an engine about to run and attaches
// itself to the engine's PostMove hook (chaining any existing hook).
// Discrepancy only changes on moves, so crossing times are move-exact.
func NewPhaseTracker(e *sim.Engine) *PhaseTracker {
	t := newPhaseTracker(e.Cfg().N())
	observe := func(e *sim.Engine) { t.observe(e.Time(), e.Cfg().Disc()) }
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
	observe := func(s *sim.Sharded) { t.observe(s.Time(), s.Disc()) }
	observe(e)
	e.PostCheck = observe
	return t
}

func newPhaseTracker(n int) *PhaseTracker {
	return &PhaseTracker{
		Times:     PhaseTimes{LogBalanced: -1, OneBalanced: -1, Perfect: -1},
		logTarget: LogBalancedTarget(n),
	}
}

// observe records every boundary the discrepancy disc at time now
// crosses for the first time — the one crossing rule of both engines.
func (t *PhaseTracker) observe(now, disc float64) {
	p := phaseAt(disc, t.logTarget)
	if t.Times.LogBalanced < 0 && p >= LogBalanced {
		t.Times.LogBalanced = now
	}
	if t.Times.OneBalanced < 0 && p >= OneBalanced {
		t.Times.OneBalanced = now
	}
	if t.Times.Perfect < 0 && p == Perfect {
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
