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
	// HalfAvgBalanced is the first time disc ≤ ∅/2 (Lemma 11's target,
	// only meaningful for large ∅).
	HalfAvgBalanced float64
	// OverloadedAtMostN is the first time the number of overloaded balls
	// drops to ≤ n (Lemma 15's subphase boundary).
	OverloadedAtMostN float64
	// OneBalanced is the first time disc ≤ 1 (Phase 2 target, Lemma 14).
	OneBalanced float64
	// Perfect is the first time disc < 1 (Phase 3 target, Theorem 1's T).
	Perfect float64
}

// LogBalancedTarget returns the Phase 1 discrepancy target 96·ln n (the
// explicit constant of Lemma 10). Both the direct-engine PhaseTracker and
// the sharded engine's phase observer read the threshold from here.
func LogBalancedTarget(n int) float64 { return 96 * math.Log(float64(n)) }

// PhaseTracker watches an engine run and fills in PhaseTimes. It also
// verifies, move by move, the §3 monotonicity observations (discrepancy
// never increases, the minimum load never decreases, the maximum never
// increases) and Lemma 16's claim that the potential 3A − k − h never
// increases; any violation is counted.
type PhaseTracker struct {
	Times PhaseTimes

	logTarget float64 // 96 ln n
	halfAvg   float64 // ∅/2
	n         int

	prevDisc      float64
	prevMin       int
	prevMax       int
	prevPotential float64

	// Violation counters (expected to stay zero under plain RLS).
	DiscIncreases      int
	MinDecreases       int
	MaxIncreases       int
	PotentialIncreases int
}

// NewPhaseTracker builds a tracker for an engine about to run and attaches
// itself to the engine's PostMove hook (chaining any existing hook).
func NewPhaseTracker(e *sim.Engine) *PhaseTracker {
	n := e.Cfg().N()
	t := &PhaseTracker{
		Times: PhaseTimes{
			LogBalanced:       -1,
			HalfAvgBalanced:   -1,
			OverloadedAtMostN: -1,
			OneBalanced:       -1,
			Perfect:           -1,
		},
		logTarget:     LogBalancedTarget(n),
		halfAvg:       e.Cfg().Avg() / 2,
		n:             n,
		prevDisc:      e.Cfg().Disc(),
		prevMin:       e.Cfg().Min(),
		prevMax:       e.Cfg().Max(),
		prevPotential: e.Cfg().Potential(),
	}
	t.observe(e) // the initial configuration may already satisfy targets
	prev := e.PostMove
	e.PostMove = func(e *sim.Engine, src, dst int) {
		if prev != nil {
			prev(e, src, dst)
		}
		t.observe(e)
	}
	return t
}

// observe updates crossing times and monotonicity counters from the
// current engine state. Discrepancy only changes on moves, so observing
// from the PostMove hook captures crossing times exactly.
func (t *PhaseTracker) observe(e *sim.Engine) {
	cfg := e.Cfg()
	now := e.Time()
	disc := cfg.Disc()
	if t.Times.LogBalanced < 0 && disc <= t.logTarget {
		t.Times.LogBalanced = now
	}
	if t.Times.HalfAvgBalanced < 0 && disc <= t.halfAvg {
		t.Times.HalfAvgBalanced = now
	}
	if t.Times.OverloadedAtMostN < 0 && cfg.OverloadedBalls() <= float64(t.n) {
		t.Times.OverloadedAtMostN = now
	}
	if t.Times.OneBalanced < 0 && disc <= 1 {
		t.Times.OneBalanced = now
	}
	if t.Times.Perfect < 0 && cfg.IsPerfect() {
		t.Times.Perfect = now
	}

	if disc > t.prevDisc+1e-9 {
		t.DiscIncreases++
	}
	if cfg.Min() < t.prevMin {
		t.MinDecreases++
	}
	if cfg.Max() > t.prevMax {
		t.MaxIncreases++
	}
	if cfg.Potential() > t.prevPotential+1e-9 {
		t.PotentialIncreases++
	}
	t.prevDisc = disc
	t.prevMin = cfg.Min()
	t.prevMax = cfg.Max()
	t.prevPotential = cfg.Potential()
}
