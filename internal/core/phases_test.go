package core

import (
	"math"
	"testing"

	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

func TestPhaseTrackerOrdering(t *testing.T) {
	// From an all-in-one start the phases must be crossed in order:
	// log-balanced ≤ 1-balanced ≤ perfect.
	v := loadvec.AllInOne().Generate(32, 320, nil)
	e := sim.NewEngine(v, RLS{}, rng.New(1))
	tr := NewPhaseTracker(e)
	res := e.Run(sim.UntilPerfect(), 10_000_000)
	if !res.Stopped {
		t.Fatal("did not balance")
	}
	ts := tr.Times
	if ts.Perfect < 0 || ts.OneBalanced < 0 || ts.LogBalanced < 0 {
		t.Fatalf("missing crossings: %+v", ts)
	}
	if !(ts.LogBalanced <= ts.OneBalanced && ts.OneBalanced <= ts.Perfect) {
		t.Fatalf("phases out of order: %+v", ts)
	}
}

func TestPhaseTrackerMonotonicityCleanUnderRLS(t *testing.T) {
	v := loadvec.OneChoice().Generate(16, 160, rng.New(2))
	e := sim.NewEngine(v, RLS{}, rng.New(3))
	w := WatchMonotone(e)
	e.Run(sim.UntilPerfect(), 10_000_000)
	if w.MonotoneViolations() != 0 {
		t.Fatalf("monotonicity violations under plain RLS: disc+%d min-%d max+%d",
			w.DiscIncreases, w.MinDecreases, w.MaxIncreases)
	}
}

// Lemma 16's potential 3A − k − h never increases under RLS (n | m case).
func TestPotentialNonIncreasingUnderRLS(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		r := rng.New(seed)
		v := loadvec.OneChoice().Generate(16, 16*8, r)
		e := sim.NewEngine(v, RLS{}, r)
		w := WatchMonotone(e)
		e.Run(sim.UntilPerfect(), 10_000_000)
		if w.PotentialIncreases != 0 {
			t.Fatalf("seed %d: potential increased %d times", seed, w.PotentialIncreases)
		}
	}
}

func TestPhaseTrackerDetectsAdversarialViolations(t *testing.T) {
	// The concentrator adversary pushes balls back into the fullest bin,
	// so the observed (post-adversary) process violates the §3
	// monotonicity properties — the watch must notice. The adversary is
	// attached first so the watch observes post-adversary states.
	v := loadvec.AllInOne().Generate(8, 64, nil)
	e := sim.NewEngine(v, RLS{}, rng.New(4))
	Attach(e, ConcentratorAdversary{Budget: 2})
	w := WatchMonotone(e)
	e.Run(sim.UntilActivations(5000), 0)
	if w.MonotoneViolations() == 0 {
		t.Fatal("watch failed to notice adversarial violations")
	}
}

func TestPhaseTrackerInitialStateCounts(t *testing.T) {
	// Starting perfectly balanced: all crossing times are 0.
	v := loadvec.Balanced().Generate(8, 64, nil)
	e := sim.NewEngine(v, RLS{}, rng.New(5))
	tr := NewPhaseTracker(e)
	if tr.Times.Perfect != 0 || tr.Times.OneBalanced != 0 || tr.Times.LogBalanced != 0 {
		t.Fatalf("crossings not recorded at t=0: %+v", tr.Times)
	}
}

// Lemma 17 sanity at small scale: from a 1-balanced configuration with A
// imbalanced pairs, measured mean time to perfect balance is within a
// constant factor of Σ n/(∅ A²).
func TestPhase3MatchesLemma17Shape(t *testing.T) {
	const n, avg = 32, 16
	m := n * avg
	const reps = 60
	root := rng.New(77)
	var total float64
	for i := 0; i < reps; i++ {
		r := root.Split()
		v := loadvec.ImbalancedPairs(4).Generate(n, m, r)
		e := sim.NewEngine(v, RLS{}, r)
		res := e.Run(sim.UntilPerfect(), 50_000_000)
		if !res.Stopped {
			t.Fatal("phase-3 run did not finish")
		}
		total += res.Time
	}
	mean := total / reps
	// Expected: Σ_{A=1..4} n/(∅A²) ≈ (n/∅)(1 + 1/4 + 1/9 + 1/16).
	predict := 0.0
	for a := 1; a <= 4; a++ {
		predict += float64(n) / (float64(avg) * float64(a*a))
	}
	if mean < predict/6 || mean > predict*6 {
		t.Fatalf("phase-3 mean %g vs prediction %g: off by more than 6x", mean, predict)
	}
}

func TestLemma17BoundValue(t *testing.T) {
	got := Lemma17Bound(100, 1000) // n/∅ = 10
	if got < 10 || got > 10*math.Pi*math.Pi/6+1e-9 {
		t.Fatalf("Lemma17Bound = %g outside (10, 10·π²/6]", got)
	}
}

// MonotoneViolations returns the total count of §3-monotonicity
// violations observed (0 under plain RLS; adversarial runs may violate
// them freely).
func (w *MonotoneWatch) MonotoneViolations() int {
	return w.DiscIncreases + w.MinDecreases + w.MaxIncreases
}
