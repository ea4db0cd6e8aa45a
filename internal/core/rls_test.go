package core

import (
	"testing"
	"testing/quick"

	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

func TestRLSDecideRule(t *testing.T) {
	// Force specific destinations by checking the rule over many draws:
	// from the configuration {3, 2, 1, 3}, a ball in bin 0 may move to
	// bins 1 (3≥3) and 2 (3≥2) but not 0 (self) or 3 (3≥4 false).
	cfg := loadvec.NewConfig(loadvec.Vector{3, 2, 1, 3})
	r := rng.New(1)
	allowed := map[int]bool{1: true, 2: true}
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		dst, move := RLS{}.Decide(cfg, 0, r)
		if move {
			if !allowed[dst] {
				t.Fatalf("RLS moved 0→%d illegally", dst)
			}
			seen[dst] = true
		}
	}
	if !seen[1] || !seen[2] {
		t.Errorf("RLS never used destinations: seen=%v", seen)
	}
}

func TestStrictRLSForbidsNeutral(t *testing.T) {
	cfg := loadvec.NewConfig(loadvec.Vector{3, 2, 1})
	r := rng.New(2)
	for i := 0; i < 1000; i++ {
		dst, move := StrictRLS{}.Decide(cfg, 0, r)
		if move && dst == 1 {
			t.Fatal("strict RLS performed a neutral move 3→2")
		}
		if move && dst != 2 {
			t.Fatalf("strict RLS moved 0→%d", dst)
		}
	}
}

// §3: under RLS the discrepancy never increases, the minimum load never
// decreases, and the maximum load never increases. Property test over
// random starts and full trajectories.
func TestRLSMonotonicityProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(16)
		m := 1 + r.Intn(100)
		v := loadvec.OneChoice().Generate(n, m, r)
		e := sim.NewEngine(v, RLS{}, r)
		prevDisc := e.Cfg().Disc()
		prevMin, prevMax := e.Cfg().Min(), e.Cfg().Max()
		for step := 0; step < 500; step++ {
			e.Step()
			if e.Cfg().Disc() > prevDisc+1e-9 {
				t.Logf("disc increased: %g -> %g", prevDisc, e.Cfg().Disc())
				return false
			}
			if e.Cfg().Min() < prevMin || e.Cfg().Max() > prevMax {
				t.Logf("min/max violated")
				return false
			}
			prevDisc, prevMin, prevMax = e.Cfg().Disc(), e.Cfg().Min(), e.Cfg().Max()
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// Perfect balance is absorbing: once disc < 1, RLS makes no further moves
// possible except neutral ones, which keep disc < 1.
func TestRLSPerfectBalanceAbsorbing(t *testing.T) {
	r := rng.New(7)
	v := loadvec.Balanced().Generate(7, 24, r) // disc < 1 with n∤m
	if !v.IsPerfect() {
		t.Fatal("setup not perfect")
	}
	e := sim.NewEngine(v, RLS{}, r)
	for i := 0; i < 5000; i++ {
		e.Step()
		if !e.Cfg().IsPerfect() {
			t.Fatalf("left perfect balance at step %d: %v", i, e.Cfg().Loads())
		}
	}
}

// Both tie-rule variants balance; strict RLS cannot perform neutral moves
// but reaches perfect balance all the same (§3 remark, ablation A2).
func TestStrictAndPaperVariantsBothBalance(t *testing.T) {
	for name, mover := range map[string]sim.Mover{"rls": RLS{}, "rls-strict": StrictRLS{}} {
		v := loadvec.AllInOne().Generate(16, 64, nil)
		e := sim.NewEngine(v, mover, rng.New(11))
		res := e.Run(sim.UntilPerfect(), 2_000_000)
		if !res.Stopped {
			t.Fatalf("%s did not balance", name)
		}
	}
}
