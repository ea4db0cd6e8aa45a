package sim

// Failure-injection tests: the engine must fail loudly (panic with a
// traceable message) when a protocol misbehaves, rather than silently
// corrupting state, and must stay consistent after recoverable abuse.

import (
	"testing"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// brokenMover returns destinations outside [0, n).
type brokenMover struct{ dst int }

func (b brokenMover) Decide(*loadvec.Config, int, *rng.RNG) (int, bool) { return b.dst, true }
func (b brokenMover) Name() string                                      { return "broken" }

func TestEngineSurvivesOrPanicsOnOutOfRangeMover(t *testing.T) {
	// A mover returning an out-of-range destination must panic (index out
	// of range in the config) — never silently continue.
	v := loadvec.Vector{4, 4}
	e := NewEngine(v, brokenMover{dst: 99}, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("engine accepted an out-of-range destination")
		}
	}()
	for i := 0; i < 10; i++ {
		e.Step()
	}
}

// emptySourceMover tries to move balls it does not have by lying about
// the decision after the engine already sampled a legitimate source.
// The engine samples sources itself, so the only way to trigger an
// empty-bin move is ForceMove abuse.
func TestForceMoveFromEmptyPanics(t *testing.T) {
	v := loadvec.Vector{0, 4}
	e := NewEngine(v, rlsRule{}, rng.New(2))
	defer func() {
		if recover() == nil {
			t.Fatal("ForceMove from empty bin accepted")
		}
	}()
	e.ForceMove(0, 1)
}

func TestForceMoveSelfLoopPanics(t *testing.T) {
	v := loadvec.Vector{4, 4}
	e := NewEngine(v, rlsRule{}, rng.New(3))
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop ForceMove accepted")
		}
	}()
	e.ForceMove(1, 1)
}

// selfMover always proposes the ball's own bin; RLS semantics say this
// can never succeed, and the engine must simply record failed
// activations forever without state change.
type selfMover struct{}

func (selfMover) Decide(_ *loadvec.Config, src int, _ *rng.RNG) (int, bool) { return src, true }
func (selfMover) Name() string                                              { return "self" }

func TestEngineIgnoresSelfMoves(t *testing.T) {
	v := loadvec.Vector{5, 3}
	e := NewEngine(v, selfMover{}, rng.New(4))
	res := e.Run(UntilActivations(1000), 0)
	if res.Moves != 0 {
		t.Fatalf("self-moves recorded as moves: %d", res.Moves)
	}
	if !res.Final.Equal(v) {
		t.Fatal("state changed under self-moves")
	}
}

// A PostMove hook that panics must propagate (no silent swallowing).
func TestPostMovePanicPropagates(t *testing.T) {
	v := loadvec.AllInOne().Generate(4, 16, nil)
	e := NewEngine(v, rlsRule{}, rng.New(5))
	e.PostMove = func(*Engine, int, int) { panic("hook failure") }
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("hook panic swallowed")
		}
	}()
	for i := 0; i < 1000; i++ {
		e.Step()
	}
}

// The ball list must reject Reset-free use in a way that fails fast.
func TestSamplerUseBeforeResetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sample before Reset did not panic")
		}
	}()
	NewBallList().Sample(rng.New(6))
}

// After an engine exhausts its activation budget mid-flight, its state
// must still validate and be resumable.
func TestEngineResumableAfterBudget(t *testing.T) {
	v := loadvec.AllInOne().Generate(16, 128, nil)
	e := NewEngine(v, rlsRule{}, rng.New(7))
	res1 := e.Run(UntilPerfect(), 50)
	if res1.Stopped {
		t.Fatal("50 activations cannot finish this instance")
	}
	if err := e.Cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	res2 := e.Run(UntilPerfect(), 10_000_000)
	if !res2.Stopped {
		t.Fatal("resumed run did not finish")
	}
	if res2.Activations < res1.Activations {
		t.Fatal("activation counter went backwards")
	}
}
