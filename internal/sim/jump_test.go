package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestJumpEngineReachesPerfection(t *testing.T) {
	v := loadvec.AllInOne().Generate(16, 256, nil)
	e := NewJumpEngine(v, rng.New(3))
	res := e.Run(UntilPerfect(), 0)
	if !res.Stopped {
		t.Fatal("did not balance")
	}
	if !res.Final.IsPerfect() {
		t.Fatalf("final not perfect: %v", res.Final)
	}
	if res.Moves >= res.Activations {
		t.Fatalf("moves %d should be well below activations %d", res.Moves, res.Activations)
	}
	if err := e.Cfg().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestJumpEngineEveryStepMoves is the rejection-free property: away from
// the flat configuration every Step must end in exactly one move.
func TestJumpEngineEveryStepMoves(t *testing.T) {
	v := loadvec.AllInOne().Generate(8, 64, nil)
	e := NewJumpEngine(v, rng.New(11))
	for !e.Cfg().IsPerfect() {
		moves := e.Moves()
		if !e.Step() {
			t.Fatalf("null Step with W = %d", e.Cfg().MoveWeight())
		}
		if e.Moves() != moves+1 {
			t.Fatalf("Step made %d moves", e.Moves()-moves)
		}
	}
}

// TestJumpEngineFlatAdvancesTime pins the W = 0 fallback: a flat
// configuration has no productive move, yet time-targeted runs must not
// spin forever.
func TestJumpEngineFlatAdvancesTime(t *testing.T) {
	e := NewJumpEngine(loadvec.Vector{2, 2, 2, 2}, rng.New(5))
	res := e.Run(UntilTime(1.5), 0)
	if !res.Stopped {
		t.Fatal("did not reach the time target")
	}
	if res.Moves != 0 {
		t.Fatalf("flat run made %d moves", res.Moves)
	}
	if res.Activations == 0 {
		t.Fatal("no activations ticked")
	}
}

// TestJumpEngineHorizonClampsExactly pins the time-target fix: with a
// horizon set, the gap whose move would land past it is discarded, the
// clock lands bit-exactly on the horizon, and no move past the horizon is
// applied — where the unclamped engine overshoots by up to a whole gap
// (~n/R near balance).
func TestJumpEngineHorizonClampsExactly(t *testing.T) {
	const horizon = 4.0
	for seed := uint64(1); seed <= 20; seed++ {
		e := NewJumpEngine(loadvec.AllInOne().Generate(16, 128, nil), rng.New(seed))
		e.SetHorizon(horizon)
		res := e.Run(UntilTime(horizon), 0)
		if !res.Stopped {
			t.Fatalf("seed %d: did not reach the horizon", seed)
		}
		if res.Time != horizon {
			t.Fatalf("seed %d: time %v, want exactly %v", seed, res.Time, horizon)
		}
		if res.Activations == 0 {
			t.Fatalf("seed %d: no activations ticked", seed)
		}
		if err := e.Cfg().Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJumpEngineFlatHorizon pins the W = 0 branch under a horizon: a flat
// configuration jumps straight to the horizon, tallying the null
// activations in one Poisson draw.
func TestJumpEngineFlatHorizon(t *testing.T) {
	e := NewJumpEngine(loadvec.Vector{3, 3, 3, 3}, rng.New(5))
	e.SetHorizon(3)
	res := e.Run(UntilTime(3), 0)
	if !res.Stopped || res.Time != 3 {
		t.Fatalf("stopped=%v time=%v, want exactly 3", res.Stopped, res.Time)
	}
	if res.Moves != 0 {
		t.Fatalf("flat run made %d moves", res.Moves)
	}
	if res.Activations == 0 {
		t.Fatal("no activations ticked (mean m·T = 36)")
	}
}

// TestJumpActivationTargetsAndTrace pins the move-granular activation
// reads of jump runs over several seeds: UntilActivations(k) stops near k
// instead of running on until k moves, a traced run's activation column
// is non-decreasing and ends at Result.Activations, and both repeat
// exactly for a fixed seed.
func TestJumpActivationTargetsAndTrace(t *testing.T) {
	// m/n is not an integer, so the configuration never goes flat and a
	// move near balance closes only a few null activations.
	const n, m, k, every = 64, 520, 20000, 1000
	run := func(seed uint64) (Result, Result, []TracePoint) {
		e := NewJumpEngine(loadvec.AllInOne().Generate(n, m, nil), rng.New(seed))
		res := e.Run(UntilActivations(k), 0)
		e = NewJumpEngine(loadvec.AllInOne().Generate(n, m, nil), rng.New(seed))
		tres, trace := e.RunTraced(UntilActivations(k), 0, every)
		return res, tres, trace
	}
	// The closing tally swaps ⌊Λ⌋ (Λ < k) for Poisson(Λ), and the final
	// move adds its own nulls.
	slack := 6*math.Sqrt(k) + 20*n
	for seed := uint64(1); seed <= 8; seed++ {
		res, tres, trace := run(seed)
		for _, r := range []Result{res, tres} {
			if !r.Stopped {
				t.Fatalf("seed %d: UntilActivations(%d) did not stop: %v", seed, k, r)
			}
			if d := math.Abs(float64(r.Activations - k)); d > slack {
				t.Fatalf("seed %d: stopped at %d activations, want %d ± %.0f", seed, r.Activations, k, slack)
			}
		}
		// One point per boundary crossed, each tallied exactly, between
		// the initial and final points.
		if len(trace) < k/every || len(trace) > k/every+2 {
			t.Fatalf("seed %d: %d trace points for %d activations every %d", seed, len(trace), k, every)
		}
		for i := 1; i < len(trace)-1; i++ {
			if d := math.Abs(float64(trace[i].Activations - int64(i)*every)); d > slack {
				t.Fatalf("seed %d: trace point %d at %d activations, want %d ± %.0f", seed, i, trace[i].Activations, i*every, slack)
			}
		}
		for i := 1; i < len(trace); i++ {
			if trace[i].Activations < trace[i-1].Activations || trace[i].Time < trace[i-1].Time {
				t.Fatalf("seed %d: trace point %d (%d, %v) after (%d, %v)", seed, i,
					trace[i].Activations, trace[i].Time, trace[i-1].Activations, trace[i-1].Time)
			}
		}
		if last := trace[len(trace)-1]; last.Activations != tres.Activations || last.Time != tres.Time {
			t.Fatalf("seed %d: trace ends at (%d, %v), run at (%d, %v)", seed,
				last.Activations, last.Time, tres.Activations, tres.Time)
		}
		res2, tres2, trace2 := run(seed)
		if !reflect.DeepEqual(res, res2) || !reflect.DeepEqual(tres, tres2) || !reflect.DeepEqual(trace, trace2) {
			t.Fatalf("seed %d: runs do not repeat", seed)
		}
	}
}

// TestJumpHorizonMatchesDirectLaw is the regression gate for the
// clamped final gap: at a fixed horizon the direct and jump engines
// must agree on the law of the activation and move counts (the Poisson
// tally is exact by thinning), while their reported times bracket
// the horizon from opposite sides by construction.
func TestJumpHorizonMatchesDirectLaw(t *testing.T) {
	const n, m, horizon, reps = 16, 64, 3.0, 400
	root := rng.New(1702)
	var directActs, jumpActs, directMoves, jumpMoves float64
	for i := 0; i < reps; i++ {
		r := root.Split()
		res := NewEngine(loadvec.AllInOne().Generate(n, m, nil), rlsRule{}, r).
			Run(UntilTime(horizon), 0)
		if res.Time < horizon {
			t.Fatalf("direct stopped early at %v", res.Time)
		}
		directActs += float64(res.Activations)
		directMoves += float64(res.Moves)

		r2 := root.Split()
		e := NewJumpEngine(loadvec.AllInOne().Generate(n, m, nil), r2)
		e.SetHorizon(horizon)
		res2 := e.Run(UntilTime(horizon), 0)
		if res2.Time != horizon {
			t.Fatalf("jump time %v, want exactly %v", res2.Time, horizon)
		}
		jumpActs += float64(res2.Activations)
		jumpMoves += float64(res2.Moves)
	}
	if ratio := jumpActs / directActs; math.Abs(ratio-1) > 0.10 {
		t.Errorf("activation ratio jump/direct = %g, want ≈ 1", ratio)
	}
	if ratio := jumpMoves / directMoves; math.Abs(ratio-1) > 0.10 {
		t.Errorf("move ratio jump/direct = %g, want ≈ 1", ratio)
	}
}

// TestJumpEngineChurn interleaves churn with jump execution and checks
// the level index stays exact.
func TestJumpEngineChurn(t *testing.T) {
	e := NewJumpEngine(loadvec.Vector{8, 0, 0, 0}, rng.New(21))
	r := rng.New(22)
	for i := 0; i < 400; i++ {
		switch r.Intn(3) {
		case 0:
			e.AddBall(r.Intn(4))
		case 1:
			if e.Cfg().M() > 1 {
				e.RemoveBall(e.RandomBin())
			}
		case 2:
			e.Step()
		}
	}
	if err := e.Cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Cfg().M() <= 0 {
		t.Fatal("lost all balls")
	}
}

// TestJumpEngineForceMoveAndHook checks the adversary surface: PostMove
// fires once per move and ForceMove keeps the index consistent.
func TestJumpEngineForceMoveAndHook(t *testing.T) {
	v := loadvec.AllInOne().Generate(8, 128, nil)
	e := NewJumpEngine(v, rng.New(9))
	calls := 0
	e.PostMove = func(e *Engine, src, dst int) {
		calls++
		// Undo every fourth move adversarially (a destructive move).
		if calls%4 == 0 && e.Cfg().Load(dst) > 0 {
			e.ForceMove(dst, src)
		}
	}
	e.Run(UntilPerfect(), 200_000)
	if int64(calls) != e.Moves() {
		t.Fatalf("hook ran %d times for %d moves", calls, e.Moves())
	}
	if e.ForcedMoves() == 0 {
		t.Fatal("adversary never acted")
	}
	if err := e.Cfg().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestJumpMatchesDirectLaw is the law-equivalence gate at unit scale: the
// balancing-time samples of the two engines must pass a two-sample KS
// test, and the mean activation counts must agree (the Poisson tally
// counts the skipped nulls exactly in law). Experiment A4 runs the full-size
// version.
func TestJumpMatchesDirectLaw(t *testing.T) {
	const n, m, reps = 16, 64, 400
	root := rng.New(1701)
	var directT, jumpT []float64
	var directActs, jumpActs float64
	for i := 0; i < reps; i++ {
		r := root.Split()
		v := loadvec.AllInOne().Generate(n, m, nil)
		e := NewEngine(v, rlsRule{}, r)
		res := e.Run(UntilPerfect(), 0)
		directT = append(directT, res.Time)
		directActs += float64(res.Activations)

		r2 := root.Split()
		e2 := NewJumpEngine(loadvec.AllInOne().Generate(n, m, nil), r2)
		res2 := e2.Run(UntilPerfect(), 0)
		jumpT = append(jumpT, res2.Time)
		jumpActs += float64(res2.Activations)
	}
	same, d := stats.SameDistribution(directT, jumpT, 0.001)
	if !same {
		t.Errorf("balancing-time KS D = %g rejects the same-law hypothesis", d)
	}
	// Activation counts have the same mean; allow 10% at this sample size.
	if ratio := jumpActs / directActs; math.Abs(ratio-1) > 0.10 {
		t.Errorf("activation ratio jump/direct = %g, want ≈ 1", ratio)
	}
}
