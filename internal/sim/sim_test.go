package sim

import (
	"math"
	"testing"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// rlsRule is a local copy of the RLS decision rule for engine tests (the
// real protocol lives in internal/core; sim must not depend on it).
type rlsRule struct{}

func (rlsRule) Decide(cfg *loadvec.Config, src int, r *rng.RNG) (int, bool) {
	dst := r.Intn(cfg.N())
	return dst, cfg.Load(src) >= cfg.Load(dst)+1
}
func (rlsRule) Name() string { return "rls-test" }

// neverMove is a protocol that never moves, for time-accounting tests.
type neverMove struct{}

func (neverMove) Decide(*loadvec.Config, int, *rng.RNG) (int, bool) { return 0, false }
func (neverMove) Name() string                                      { return "never" }

func TestSamplerLoadsMatchVector(t *testing.T) {
	v := loadvec.Vector{3, 0, 5, 1}
	s := NewBallList()
	s.Reset(v)
	for i, want := range v {
		if got := s.Load(i); got != want {
			t.Errorf("bin %d load = %d, want %d", i, got, want)
		}
	}
}

func TestSamplerFrequenciesProportionalToLoad(t *testing.T) {
	v := loadvec.Vector{1, 0, 3, 6} // m = 10
	r := rng.New(42)
	const draws = 100000
	s := NewBallList()
	s.Reset(v)
	counts := make([]int, len(v))
	for i := 0; i < draws; i++ {
		counts[s.Sample(r)]++
	}
	for i, load := range v {
		want := float64(draws) * float64(load) / 10
		se := math.Sqrt(want + 1)
		if math.Abs(float64(counts[i])-want) > 6*se {
			t.Errorf("bin %d sampled %d times, want ~%g", i, counts[i], want)
		}
	}
}

func TestSamplerMoveBall(t *testing.T) {
	s := NewBallList()
	s.Reset(loadvec.Vector{2, 0})
	s.MoveBall(0, 1)
	s.MoveBall(0, 1)
	if l0, l1 := s.Load(0), s.Load(1); l0 != 0 || l1 != 2 {
		t.Errorf("loads after moves = (%d,%d), want (0,2)", l0, l1)
	}
}

func TestBallListMoveFromEmptyPanics(t *testing.T) {
	s := NewBallList()
	s.Reset(loadvec.Vector{0, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.MoveBall(0, 1)
}

func TestEngineTimeAccounting(t *testing.T) {
	// With m balls, time after k activations is a sum of k Exp(m) gaps:
	// mean k/m.
	const m = 50
	const k = 20000
	v := loadvec.Vector{m}
	e := NewEngine(v, neverMove{}, rng.New(7))
	res := e.Run(UntilActivations(k), 2*k)
	if res.Activations != k {
		t.Fatalf("activations = %d", res.Activations)
	}
	want := float64(k) / m
	if math.Abs(res.Time-want) > 0.05*want {
		t.Errorf("time = %g, want ~%g", res.Time, want)
	}
	if res.Moves != 0 {
		t.Errorf("neverMove made %d moves", res.Moves)
	}
}

func TestEngineReachesPerfectBalance(t *testing.T) {
	v := loadvec.AllInOne().Generate(16, 64, nil)
	e := NewEngine(v, rlsRule{}, rng.New(3))
	res := e.Run(UntilPerfect(), 1_000_000)
	if !res.Stopped {
		t.Fatal("did not reach perfect balance")
	}
	if !res.Final.IsPerfect() {
		t.Fatalf("final not perfect: %v", res.Final)
	}
	if res.Final.Balls() != 64 {
		t.Fatal("ball conservation violated")
	}
}

func TestEngineBallConservationUnderRun(t *testing.T) {
	v := loadvec.OneChoice().Generate(32, 200, rng.New(1))
	e := NewEngine(v, rlsRule{}, rng.New(2))
	e.Run(UntilActivations(5000), 0)
	if err := e.Cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Cfg().M() != 200 {
		t.Fatalf("m = %d", e.Cfg().M())
	}
}

func TestEngineSamplerStaysInSync(t *testing.T) {
	v := loadvec.OneChoice().Generate(16, 100, rng.New(1))
	e := NewEngine(v, rlsRule{}, rng.New(2))
	for i := 0; i < 2000; i++ {
		e.Step()
	}
	for i := 0; i < e.Cfg().N(); i++ {
		if e.balls.Load(i) != e.Cfg().Load(i) {
			t.Fatalf("bin %d: sampler %d vs config %d", i, e.balls.Load(i), e.Cfg().Load(i))
		}
	}
}

func TestForceMoveKeepsSync(t *testing.T) {
	v := loadvec.Vector{4, 4, 4}
	e := NewEngine(v, rlsRule{}, rng.New(9))
	e.ForceMove(1, 0) // destructive: stack upward
	e.ForceMove(2, 0)
	if e.Cfg().Load(0) != 6 {
		t.Fatalf("load 0 = %d", e.Cfg().Load(0))
	}
	if e.ForcedMoves() != 2 {
		t.Fatalf("forced = %d", e.ForcedMoves())
	}
	// Run on and confirm no panic / desync.
	res := e.Run(UntilPerfect(), 100000)
	if !res.Stopped {
		t.Fatal("did not rebalance after forced moves")
	}
}

func TestPostMoveHookRuns(t *testing.T) {
	v := loadvec.AllInOne().Generate(8, 32, nil)
	e := NewEngine(v, rlsRule{}, rng.New(4))
	calls := 0
	e.PostMove = func(_ *Engine, src, dst int) {
		calls++
		if src == dst {
			t.Error("hook got src == dst")
		}
	}
	e.Run(UntilPerfect(), 100000)
	if int64(calls) != e.Moves() {
		t.Fatalf("hook ran %d times for %d moves", calls, e.Moves())
	}
}

func TestRunTraced(t *testing.T) {
	v := loadvec.AllInOne().Generate(8, 64, nil)
	e := NewEngine(v, rlsRule{}, rng.New(5))
	res, trace := e.RunTraced(UntilPerfect(), 100000, 10)
	if !res.Stopped {
		t.Fatal("did not stop")
	}
	if len(trace) < 2 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	if trace[0].Disc != 56 { // all-in-one: disc = m - m/n = 64 - 8
		t.Errorf("initial disc = %g, want 56", trace[0].Disc)
	}
	last := trace[len(trace)-1]
	if last.Disc >= 1 {
		t.Errorf("final disc = %g, want < 1", last.Disc)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Activations < trace[i-1].Activations {
			t.Fatal("trace activations not monotone")
		}
		if trace[i].Time < trace[i-1].Time {
			t.Fatal("trace time not monotone")
		}
	}
}

func TestStopConds(t *testing.T) {
	v := loadvec.Vector{10, 0}
	e := NewEngine(v, neverMove{}, rng.New(6))
	if UntilPerfect()(e) {
		t.Error("UntilPerfect on disc 5")
	}
	if !UntilBalanced(5)(e) {
		t.Error("UntilBalanced(5) should hold at disc 5")
	}
	if UntilBalanced(4.9)(e) {
		t.Error("UntilBalanced(4.9) should not hold at disc 5")
	}
	if UntilTime(1)(e) {
		t.Error("UntilTime(1) at t=0")
	}
	if !UntilActivations(0)(e) {
		t.Error("UntilActivations(0) at start")
	}
}

func TestRunRespectsActivationBudget(t *testing.T) {
	v := loadvec.Vector{10, 0}
	e := NewEngine(v, neverMove{}, rng.New(8))
	res := e.Run(UntilPerfect(), 100)
	if res.Stopped {
		t.Error("neverMove cannot reach balance")
	}
	if res.Activations != 100 {
		t.Errorf("activations = %d, want 100", res.Activations)
	}
}

func TestNewEnginePanics(t *testing.T) {
	v := loadvec.Vector{1}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil RNG accepted")
			}
		}()
		NewEngine(v, rlsRule{}, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil mover accepted")
			}
		}()
		NewEngine(v, nil, rng.New(1))
	}()
}

// stepBatch is how many engine steps one benchmark iteration times, so a
// run at a tiny -benchtime (bench.sh records 3x) still averages over
// thousands of steps; ns/op is reported per step.
const stepBatch = 4096

func BenchmarkEngineStepBallList(b *testing.B) {
	v := loadvec.OneChoice().Generate(1024, 8192, rng.New(1))
	e := NewEngine(v, rlsRule{}, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < stepBatch; j++ {
			e.Step()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stepBatch), "ns/op")
}
