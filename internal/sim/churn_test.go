package sim

// Churn agreement tests: interleaving AddBall/RemoveBall/Step on a live
// engine must keep the ball list's view of the loads identical to the
// Config's, and the Config's incremental statistics identical to a
// freshly built one.

import (
	"testing"
	"testing/quick"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// randNonEmptyBin returns a uniformly random non-empty bin of cfg, or -1
// when the configuration holds no balls.
func randNonEmptyBin(cfg *loadvec.Config, r *rng.RNG) int {
	if cfg.M() == 0 {
		return -1
	}
	for {
		if bin := r.Intn(cfg.N()); cfg.Load(bin) > 0 {
			return bin
		}
	}
}

func TestEngineChurnSamplerAgreementProperty(t *testing.T) {
	// One subtest, named for the only sampler.
	t.Run("ball-list", func(t *testing.T) {
		err := quick.Check(func(seed uint64) bool {
			script := rng.New(seed) // drives the churn schedule
			n := 2 + script.Intn(10)
			v := make(loadvec.Vector, n)
			for i := range v {
				v[i] = script.Intn(5)
			}
			if v.Balls() == 0 {
				v[0] = 1
			}
			e := NewEngine(v, rlsRule{}, rng.New(seed+1))
			list := e.balls
			for op := 0; op < 150; op++ {
				switch script.Intn(4) {
				case 0:
					e.AddBall(script.Intn(n))
				case 1:
					if e.Cfg().M() > 1 { // keep the engine steppable
						e.RemoveBall(randNonEmptyBin(e.Cfg(), script))
					}
				default: // step twice as often as each churn kind
					e.Step()
				}
				if err := e.Cfg().Validate(); err != nil {
					t.Logf("seed %d op %d: %v", seed, op, err)
					return false
				}
				for i := 0; i < n; i++ {
					if list.Load(i) != e.Cfg().Load(i) {
						t.Logf("seed %d op %d: bin %d sampler=%d cfg=%d",
							seed, op, i, list.Load(i), e.Cfg().Load(i))
						return false
					}
				}
			}
			return true
		}, &quick.Config{MaxCount: 40})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// Churn before the first activation must work.
func TestEngineChurnBeforeFirstStep(t *testing.T) {
	v := loadvec.Vector{2, 0, 1}
	e := NewEngine(v, rlsRule{}, rng.New(11))
	e.AddBall(1)
	e.AddBall(1)
	e.RemoveBall(0)
	if e.Cfg().M() != 4 {
		t.Fatalf("m = %d, want 4", e.Cfg().M())
	}
	res := e.Run(UntilPerfect(), 100000)
	if !res.Stopped {
		t.Fatal("did not balance after pre-run churn")
	}
	if res.Final.Balls() != 4 {
		t.Fatalf("ball conservation violated: %v", res.Final)
	}
}

// Removing the last resident of a bin via churn must panic like the other
// empty-bin abuses.
func TestSamplerRemoveBallEmptyPanics(t *testing.T) {
	b := NewBallList()
	b.Reset(loadvec.Vector{0, 3})
	defer func() {
		if recover() == nil {
			t.Error("RemoveBall from empty bin did not panic")
		}
	}()
	b.RemoveBall(0)
}

// A long alternating churn+run soak at m >> n: the engine absorbs every
// event incrementally and stays internally consistent.
func TestEngineChurnSoak(t *testing.T) {
	const n, m = 64, 4096
	r := rng.New(3)
	v := loadvec.OneChoice().Generate(n, m, r)
	e := NewEngine(v, rlsRule{}, rng.New(4))
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			e.AddBall(r.Intn(n))
			e.RemoveBall(randNonEmptyBin(e.Cfg(), r))
		}
		for i := 0; i < 200; i++ {
			e.Step()
		}
	}
	if err := e.Cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Cfg().M() != m {
		t.Fatalf("m drifted to %d", e.Cfg().M())
	}
}
