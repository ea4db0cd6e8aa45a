package core

import (
	"testing"

	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

func TestRandomAdversaryOnlyDestructive(t *testing.T) {
	// checkedForce panics on any non-destructive injection; a full run
	// exercising the adversary must complete without panic.
	v := loadvec.OneChoice().Generate(16, 64, rng.New(1))
	e := sim.NewEngine(v, RLS{}, rng.New(2))
	Attach(e, RandomAdversary{Attempts: 3})
	res := e.Run(sim.UntilPerfect(), 500_000)
	if res.ForcedMoves == 0 {
		t.Error("adversary never acted")
	}
	if err := e.Cfg().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReverseAdversaryFullStall(t *testing.T) {
	// With P=1 every protocol move is undone: the configuration's
	// multiset never changes and perfect balance is never reached from an
	// imperfect start.
	v := loadvec.Vector{8, 0, 0, 0}
	e := sim.NewEngine(v, RLS{}, rng.New(3))
	Attach(e, ReverseAdversary{P: 1})
	res := e.Run(sim.UntilPerfect(), 20_000)
	if res.Stopped {
		t.Fatal("fully reversed process reached balance")
	}
	if !res.Final.SortedDesc().Equal(v.SortedDesc()) {
		t.Fatalf("multiset changed under full reversal: %v", res.Final)
	}
	if res.ForcedMoves != res.Moves {
		t.Fatalf("reversals %d != moves %d", res.ForcedMoves, res.Moves)
	}
}

func TestReverseAdversaryPartialSlowdown(t *testing.T) {
	// Mean balancing time with reversal probability 0.5 should exceed the
	// plain mean (the DML in expectation). Use matched replication counts.
	const n, m, reps = 8, 32, 40
	mean := func(p float64, seed uint64) float64 {
		root := rng.New(seed)
		total := 0.0
		for i := 0; i < reps; i++ {
			r := root.Split()
			v := loadvec.AllInOne().Generate(n, m, nil)
			e := sim.NewEngine(v, RLS{}, r)
			if p > 0 {
				Attach(e, ReverseAdversary{P: p})
			}
			res := e.Run(sim.UntilPerfect(), 5_000_000)
			if !res.Stopped {
				t.Fatal("run did not finish")
			}
			total += res.Time
		}
		return total / reps
	}
	plain := mean(0, 100)
	slowed := mean(0.5, 200)
	if slowed <= plain {
		t.Fatalf("adversary sped the process up: plain %g vs adversarial %g", plain, slowed)
	}
}

func TestConcentratorAdversary(t *testing.T) {
	v := loadvec.OneChoice().Generate(8, 64, rng.New(5))
	e := sim.NewEngine(v, RLS{}, rng.New(6))
	Attach(e, ConcentratorAdversary{Budget: 1})
	// Bounded run: concentrator keeps pushing mass uphill, so we only
	// check that it acts, stays destructive (no panic), and conserves
	// balls.
	res := e.Run(sim.UntilActivations(20_000), 0)
	if res.ForcedMoves == 0 {
		t.Error("concentrator never acted")
	}
	if res.Final.Balls() != 64 {
		t.Fatal("ball count changed")
	}
}

func TestAdversaryNames(t *testing.T) {
	names := map[string]bool{}
	for _, a := range []Adversary{
		RandomAdversary{Attempts: 2}, ReverseAdversary{P: 0.5}, ConcentratorAdversary{Budget: 1},
	} {
		if a.Name() == "" || names[a.Name()] {
			t.Fatalf("bad adversary name %q", a.Name())
		}
		names[a.Name()] = true
	}
}

func TestCheckedForcePanicsOnHelpfulMove(t *testing.T) {
	v := loadvec.Vector{5, 0}
	e := sim.NewEngine(v, RLS{}, rng.New(7))
	defer func() {
		if recover() == nil {
			t.Fatal("helpful move accepted")
		}
	}()
	checkedForce(e, 0, 1) // 5 -> 0 is an RLS move, not destructive
}
