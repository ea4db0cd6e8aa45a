package rls

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestRunBasic(t *testing.T) {
	r := New(16, 64, WithSeed(1))
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("did not reach perfect balance")
	}
	if !IsPerfect(res.Final) {
		t.Fatalf("final not perfect: %v", res.Final)
	}
	if res.Disc >= 1 {
		t.Errorf("disc = %g", res.Disc)
	}
	if res.Time <= 0 || res.Activations <= 0 || res.Moves <= 0 {
		t.Errorf("degenerate counters: %+v", res)
	}
	sum := 0
	for _, l := range res.Final {
		sum += l
	}
	if sum != 64 {
		t.Errorf("ball conservation: %d", sum)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	a, err := New(16, 64, WithSeed(42)).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(16, 64, WithSeed(42)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.Activations != b.Activations {
		t.Fatal("same seed, different run")
	}
	c, _ := New(16, 64, WithSeed(43)).Run()
	if a.Time == c.Time && a.Activations == c.Activations {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestPlacements(t *testing.T) {
	for _, p := range []Placement{AllInOne(), Random(), TwoChoice(), Spread(), DeltaPair(1)} {
		res, err := New(8, 32, WithPlacement(p), WithSeed(7)).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reached {
			t.Fatalf("placement did not balance")
		}
	}
	res, err := New(3, 6, WithPlacement(FromLoads([]int{6, 0, 0})), WithSeed(7)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("FromLoads did not balance")
	}
}

func TestPhaseTimesOrdered(t *testing.T) {
	res, err := New(64, 640, WithSeed(5)).Run()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Phases
	if p.LogBalanced < 0 || p.OneBalanced < 0 || p.Perfect < 0 {
		t.Fatalf("missing phases: %+v", p)
	}
	if !(p.LogBalanced <= p.OneBalanced && p.OneBalanced <= p.Perfect) {
		t.Fatalf("phases out of order: %+v", p)
	}
	if math.Abs(p.Perfect-res.Time) > 1e-9 {
		t.Errorf("Perfect %g != total time %g", p.Perfect, res.Time)
	}
}

func TestTargets(t *testing.T) {
	res, err := New(32, 320, WithTarget(UntilBalanced(5)), WithSeed(3)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if Disc(res.Final) > 5 {
		t.Errorf("disc %g > 5", Disc(res.Final))
	}
	res2, err := New(32, 320, WithTarget(UntilTime(0.5)), WithSeed(3)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Time < 0.5 {
		t.Errorf("stopped early: %g", res2.Time)
	}
}

func TestStrictTieRule(t *testing.T) {
	res, err := New(16, 64, WithStrictTieRule(), WithSeed(9)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("strict variant did not balance")
	}
}

func TestTopologies(t *testing.T) {
	cases := []struct {
		name string
		n    int
		topo Topology
	}{
		{"complete", 16, CompleteTopology()},
		{"ring", 16, RingTopology()},
		{"torus", 16, TorusTopology(4)},
		{"hypercube", 16, HypercubeTopology(4)},
	}
	for _, c := range cases {
		res, err := New(c.n, 8*c.n, WithTopology(c.topo), WithSeed(11)).Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !res.Reached {
			t.Fatalf("%s: did not balance", c.name)
		}
	}
}

func TestTopologyMismatchErrors(t *testing.T) {
	if _, err := New(10, 100, WithTopology(TorusTopology(4))).Run(); err == nil {
		t.Error("torus mismatch accepted")
	}
	if _, err := New(10, 100, WithTopology(HypercubeTopology(3))).Run(); err == nil {
		t.Error("hypercube mismatch accepted")
	}
}

func TestSpeeds(t *testing.T) {
	speeds := make([]float64, 8)
	for i := range speeds {
		speeds[i] = 1
	}
	speeds[0] = 4
	res, err := New(8, 80, WithSpeeds(speeds), WithSeed(13)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("speed run did not reach Nash")
	}
	// The fast bin should end with more balls than any unit-speed bin.
	for i := 1; i < 8; i++ {
		if res.Final[0] < res.Final[i] {
			t.Fatalf("fast bin has %d, slow bin %d has %d", res.Final[0], i, res.Final[i])
		}
	}
}

func TestSpeedsValidation(t *testing.T) {
	if _, err := New(4, 16, WithSpeeds([]float64{1, 2})).Run(); err == nil {
		t.Error("speed length mismatch accepted")
	}
	if _, err := New(2, 4, WithSpeeds([]float64{1, -1})).Run(); err == nil {
		t.Error("negative speed accepted")
	}
}

func TestActivationBudget(t *testing.T) {
	res, err := New(64, 64, WithActivationBudget(5), WithSeed(17)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached {
		t.Fatal("5 activations cannot balance 64 balls from one bin")
	}
	if res.Activations != 5 {
		t.Errorf("activations = %d", res.Activations)
	}
}

func TestRunTraced(t *testing.T) {
	res, trace, err := New(16, 128, WithSeed(19)).RunTraced(25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("did not balance")
	}
	if len(trace) < 3 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	if trace[0].Disc <= trace[len(trace)-1].Disc {
		// from all-in-one the discrepancy must strictly fall
		t.Errorf("disc did not fall: %g -> %g", trace[0].Disc, trace[len(trace)-1].Disc)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Disc > trace[i-1].Disc+1e-9 {
			t.Fatal("discrepancy increased along an RLS trace")
		}
	}
}

func TestHelpers(t *testing.T) {
	if Disc([]int{2, 2, 2}) != 0 {
		t.Error("Disc of balanced != 0")
	}
	if !IsPerfect([]int{2, 1, 2}) {
		t.Error("IsPerfect wrong")
	}
	if MaxLatency([]int{3, 7, 1}) != 7 {
		t.Error("MaxLatency wrong")
	}
	if NashGap([]int{3, 3, 3}) != 0 || NashGap([]int{4, 2, 3}) != 1 || NashGap([]int{5, 1, 3}) != 3 {
		t.Error("NashGap wrong")
	}
	if ExpectedBalanceTime(10, 100) <= 0 || WHPBalanceTime(10, 100) <= 0 {
		t.Error("predictors non-positive")
	}
	if HarmonicLowerBound(10, 100) <= 0 {
		t.Error("harmonic bound non-positive")
	}
	if math.Abs(PairLowerBound(10, 90)-1) > 1e-12 {
		t.Errorf("PairLowerBound = %g, want 1", PairLowerBound(10, 90))
	}
}

func TestNewPanics(t *testing.T) {
	for _, nm := range [][2]int{{0, 5}, {5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", nm[0], nm[1])
				}
			}()
			New(nm[0], nm[1])
		}()
	}
}

func TestSessionChurn(t *testing.T) {
	s := NewSession(8, 21)
	for i := 0; i < 40; i++ {
		s.AddBallRandom()
	}
	if s.M() != 40 {
		t.Fatalf("M = %d", s.M())
	}
	ok, err := s.RunUntilPerfect(1_000_000)
	if err != nil || !ok {
		t.Fatalf("initial balance failed: %v", err)
	}
	// Churn: 10 leave, 20 join (all into bin 0 — worst case).
	for i := 0; i < 10; i++ {
		if _, err := s.RemoveRandomBall(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := s.AddBall(0); err != nil {
			t.Fatal(err)
		}
	}
	if s.M() != 50 {
		t.Fatalf("M after churn = %d", s.M())
	}
	ok, err = s.RunUntilPerfect(1_000_000)
	if err != nil || !ok {
		t.Fatalf("re-balance failed: %v", err)
	}
	if s.Disc() >= 1 {
		t.Errorf("disc after re-balance = %g", s.Disc())
	}
	if s.Time() <= 0 || s.Activations() <= 0 {
		t.Error("session counters not accumulated")
	}
}

func TestSessionErrors(t *testing.T) {
	s := NewSession(2, 1)
	if err := s.AddBall(5); err == nil {
		t.Error("out-of-range AddBall accepted")
	}
	if err := s.RemoveBall(0); err == nil {
		t.Error("RemoveBall from empty accepted")
	}
	if _, err := s.RemoveRandomBall(); err == nil {
		t.Error("RemoveRandomBall from empty session accepted")
	}
	if err := s.RunFor(1); err == nil {
		t.Error("RunFor with no balls accepted")
	}
	if s.Disc() != 0 {
		t.Error("empty session disc != 0")
	}
}

func TestSessionRunFor(t *testing.T) {
	s := NewSession(4, 33)
	for i := 0; i < 16; i++ {
		s.AddBall(0)
	}
	if err := s.RunFor(2.5); err != nil {
		t.Fatal(err)
	}
	if s.Time() < 2.5 {
		t.Errorf("time = %g, want >= 2.5", s.Time())
	}
}

// TestSessionRunUntilPerfectHugeBudget: a budget near MaxInt64 on a
// session already past sim.DefaultActivationBudget activations still
// runs. The relative cap saturates instead of wrapping negative, which
// made the engine fall back to its absolute default and return at once.
func TestSessionRunUntilPerfectHugeBudget(t *testing.T) {
	const n = 16
	s := NewSession(n, 5, WithSessionEngineMode(JumpEngine))
	for i := 0; i < n; i++ {
		if err := s.AddBall(i); err != nil {
			t.Fatal(err)
		}
	}
	// Flat: every activation up to the horizon is null, tallied in one
	// Poisson draw of mean n·d ≈ 3.2·10⁹.
	if err := s.RunFor(2e8); err != nil {
		t.Fatal(err)
	}
	if acts := s.Activations(); acts <= sim.DefaultActivationBudget {
		t.Fatalf("%d activations, want past %d", acts, sim.DefaultActivationBudget)
	}
	for range 2 {
		if err := s.AddBall(0); err != nil {
			t.Fatal(err)
		}
	}
	if s.Disc() < 1 {
		t.Fatalf("disc %g after unbalancing, want >= 1", s.Disc())
	}
	if ok, err := s.RunUntilPerfect(math.MaxInt64); err != nil || !ok {
		t.Fatalf("RunUntilPerfect(MaxInt64) = %v, %v; want true", ok, err)
	}
}

// TestSessionRunForBadHorizon: a NaN or infinite horizon, or one whose
// null activations would overflow the counter, is an error that leaves
// the session as it was. On a flat jump session the whole stretch is one
// Poisson tally, which used to wrap to a negative activation count; a NaN
// horizon used to spin the whole activation budget.
func TestSessionRunForBadHorizon(t *testing.T) {
	for _, mode := range []EngineMode{JumpEngine, DirectEngine} {
		s := NewSession(4, 9, WithSessionEngineMode(mode))
		for i := 0; i < 4; i++ {
			if err := s.AddBall(i); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RunFor(1); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		for _, d := range []float64{1e19, math.Inf(1), math.Inf(-1), math.NaN()} {
			if err := s.RunFor(d); err == nil {
				t.Fatalf("%s: RunFor(%g) accepted", mode, d)
			}
			if after := s.Stats(); after != before {
				t.Fatalf("%s: RunFor(%g) changed the session: %+v, was %+v", mode, d, after, before)
			}
		}
	}
}

// TestRunBadTarget: a Runner answers a NaN or infinite threshold or
// horizon, and a horizon past the activation counter, with an error
// instead of spinning its budget or wrapping the counter.
func TestRunBadTarget(t *testing.T) {
	for _, c := range []struct {
		mode   EngineMode
		target Target
	}{
		{DirectEngine, UntilTime(math.NaN())},
		{JumpEngine, UntilTime(1e19)},
		{JumpEngine, UntilTime(math.Inf(1))},
		{DirectEngine, UntilBalanced(math.NaN())},
		{DirectEngine, UntilBalanced(math.Inf(1))},
		{JumpEngine, UntilBalanced(math.Inf(-1))},
	} {
		r := New(4, 4, WithPlacement(Spread()), WithEngineMode(c.mode), WithTarget(c.target), WithActivationBudget(1000))
		if res, err := r.Run(); err == nil {
			t.Errorf("%s %s: Run accepted, got %+v", c.mode, c.target, res)
		}
		if _, _, err := r.RunTraced(10); err == nil {
			t.Errorf("%s %s: RunTraced accepted", c.mode, c.target)
		}
	}
}

// TestPlacementMisfitErrors: a placement that cannot hold m balls in n
// bins is an error from Run and RunTraced, not a panic.
func TestPlacementMisfitErrors(t *testing.T) {
	for _, c := range []struct {
		name      string
		n, m      int
		placement func() Placement
	}{
		{"FromLoads wrong length and sum", 4, 3, func() Placement { return FromLoads([]int{1, 2}) }},
		{"FromLoads negative entry", 2, 2, func() Placement { return FromLoads([]int{-1, 3}) }},
		{"DeltaPair(1) at m < n", 8, 1, func() Placement { return DeltaPair(1) }},
		{"DeltaPair(0)", 8, 32, func() Placement { return DeltaPair(0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := New(c.n, c.m, WithPlacement(c.placement()))
			if res, err := r.Run(); err == nil {
				t.Errorf("Run accepted, got %+v", res)
			}
			if _, _, err := r.RunTraced(10); err == nil {
				t.Error("RunTraced accepted")
			}
		})
	}
}
