package protocols

import (
	"testing"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

func TestCRSInitialPlacementIsTwoChoice(t *testing.T) {
	r := rng.New(1)
	c := NewCRS(64, 64, r)
	if c.Loads().Balls() != 64 {
		t.Fatalf("balls = %d", c.Loads().Balls())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Two-choice placement at m = n keeps the max load very small
	// (O(ln ln n)); anything ≥ 6 would be far outside that regime.
	_, max := c.Loads().MinMax()
	if max >= 6 {
		t.Errorf("two-choice max load = %d, implausibly high", max)
	}
}

func TestCRSStepMovesOnlyToLesserLoaded(t *testing.T) {
	r := rng.New(2)
	c := NewCRS(16, 32, r)
	for i := 0; i < 20000; i++ {
		before := c.Loads().Clone()
		moved := c.Step(r)
		if moved {
			// Find the move: exactly two bins changed by ±1, and the
			// destination must have been strictly less loaded.
			var src, dst = -1, -1
			for b := range before {
				switch c.Loads()[b] - before[b] {
				case -1:
					src = b
				case 1:
					dst = b
				}
			}
			if src < 0 || dst < 0 {
				t.Fatal("move did not change exactly two bins")
			}
			if before[dst] >= before[src] {
				t.Fatalf("CRS moved uphill: %d(%d) -> %d(%d)", src, before[src], dst, before[dst])
			}
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCRSBallConservationOverRun(t *testing.T) {
	r := rng.New(3)
	c := NewCRS(32, 32, r)
	c.RunUntilPerfect(r, 200000)
	if c.Loads().Balls() != 32 {
		t.Fatal("ball count changed")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCRSReachesPerfectBalanceWhenFeasible(t *testing.T) {
	// CRS balls are confined to their two alternatives, so perfect
	// balance requires the two-choice multigraph to admit an equitable
	// orientation. At m = n (average load 1) that almost never exists —
	// a structural limitation RLS does not share (see CMP1) — so we test
	// at average load 8, where it exists w.h.p., and require most runs to
	// finish within the polynomial budget.
	reached := 0
	for seed := uint64(0); seed < 10; seed++ {
		r := rng.New(seed)
		c := NewCRS(16, 128, r)
		_, ok := c.RunUntilPerfect(r, 2_000_000)
		if ok {
			reached++
		}
	}
	if reached < 7 {
		t.Fatalf("CRS reached balance in only %d/10 runs", reached)
	}
}

func TestCRSCannotAlwaysReachPerfectBalanceAtUnitDensity(t *testing.T) {
	// The flip side of the above: at m = n, most two-choice graphs have
	// tree components (more bins than balls locally), making all-loads-1
	// unreachable. Verify the limitation is real: across seeds, at least
	// one run fails even with a generous budget.
	failures := 0
	for seed := uint64(0); seed < 6; seed++ {
		r := rng.New(seed)
		c := NewCRS(16, 16, r)
		if _, ok := c.RunUntilPerfect(r, 500_000); !ok {
			failures++
		}
	}
	if failures == 0 {
		t.Skip("all unit-density runs balanced (possible but unlikely); nothing to assert")
	}
}

func TestRunRoundsStopsImmediately(t *testing.T) {
	cfg := loadvec.NewConfig(loadvec.Vector{2, 2})
	rounds, ok := RunRounds(EvenDarMansour{}, cfg, rng.New(1), Perfect, 100)
	if rounds != 0 || !ok {
		t.Fatalf("rounds=%d ok=%v", rounds, ok)
	}
}

func TestEvenDarMansourBalances(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		r := rng.New(seed)
		v := loadvec.AllInOne().Generate(16, 160, r)
		cfg := loadvec.NewConfig(v)
		rounds, ok := RunRounds(EvenDarMansour{}, cfg, r, Perfect, 10000)
		if !ok {
			t.Fatalf("seed %d: not balanced after %d rounds (disc %g)", seed, rounds, cfg.Disc())
		}
		if cfg.M() != 160 {
			t.Fatal("ball count changed")
		}
	}
}

func TestEvenDarMansourFastWithGlobalKnowledge(t *testing.T) {
	// O(ln ln m + ln n) rounds: from a heavily skewed start at n=64,
	// m=4096, balance should arrive within a few dozen rounds.
	r := rng.New(9)
	v := loadvec.AllInOne().Generate(64, 4096, r)
	cfg := loadvec.NewConfig(v)
	rounds, ok := RunRounds(EvenDarMansour{}, cfg, r, Perfect, 2000)
	if !ok {
		t.Fatal("did not balance")
	}
	if rounds > 200 {
		t.Errorf("took %d rounds, want fast convergence", rounds)
	}
}

func TestDistributedSelfishBalances(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		r := rng.New(seed)
		v := loadvec.OneChoice().Generate(8, 400, r)
		cfg := loadvec.NewConfig(v)
		_, ok := RunRounds(DistributedSelfish{}, cfg, r, Perfect, 200000)
		if !ok {
			t.Fatalf("seed %d: not balanced (disc %g)", seed, cfg.Disc())
		}
	}
}

func TestDistributedSelfishConservation(t *testing.T) {
	r := rng.New(4)
	cfg := loadvec.NewConfig(loadvec.OneChoice().Generate(16, 320, r))
	for round := 0; round < 50; round++ {
		DistributedSelfish{}.Round(cfg, r)
	}
	if cfg.M() != 320 || cfg.Loads().Balls() != 320 {
		t.Fatal("ball count changed")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdReachesConstantFactorButNotPerfect(t *testing.T) {
	r := rng.New(5)
	v := loadvec.AllInOne().Generate(32, 3200, r) // avg 100
	cfg := loadvec.NewConfig(v)
	p := Threshold{Factor: 2, MoveProb: 0.5}
	rounds, ok := RunRounds(p, cfg, r, BalancedWithin(cfg.Avg()), 10000)
	if !ok {
		t.Fatalf("threshold protocol did not reach factor-2 balance (disc %g)", cfg.Disc())
	}
	if rounds > 500 {
		t.Errorf("took %d rounds to constant factor", rounds)
	}
	// Below the threshold the protocol freezes: the CMP3 claim. From a
	// sub-threshold but imperfect configuration, no round changes
	// anything.
	frozen := loadvec.NewConfig(loadvec.Vector{150, 50, 100, 100}) // avg 100, all ≤ 2·avg
	before := frozen.Snapshot()
	for round := 0; round < 50; round++ {
		p.Round(frozen, r)
	}
	if !frozen.Snapshot().Equal(before) {
		t.Fatal("threshold protocol moved below its threshold")
	}
	if frozen.IsPerfect() {
		t.Fatal("test setup should be imperfect")
	}
}

func TestRunRoundsBudget(t *testing.T) {
	cfg := loadvec.NewConfig(loadvec.Vector{150, 50, 100, 100})
	p := Threshold{Factor: 2, MoveProb: 0.5}
	rounds, ok := RunRounds(p, cfg, rng.New(6), Perfect, 25)
	if ok {
		t.Fatal("frozen threshold protocol cannot reach perfection")
	}
	if rounds != 25 {
		t.Fatalf("rounds = %d, want 25", rounds)
	}
}
