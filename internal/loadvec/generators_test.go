package loadvec

import (
	"strings"
	"testing"

	"repro/internal/rng"
)

// checkGen validates the basic generator contract: n bins, m balls,
// non-negative loads.
func checkGen(t *testing.T, g Generator, n, m int) Vector {
	t.Helper()
	r := rng.New(123)
	v := g.Generate(n, m, r)
	if len(v) != n {
		t.Fatalf("%s: got %d bins, want %d", g.Name(), len(v), n)
	}
	if err := v.Validate(m); err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	return v
}

func TestAllInOne(t *testing.T) {
	v := checkGen(t, AllInOne(), 8, 40)
	if v[0] != 40 {
		t.Errorf("bin 0 has %d", v[0])
	}
	for i := 1; i < 8; i++ {
		if v[i] != 0 {
			t.Errorf("bin %d non-empty", i)
		}
	}
}

func TestOneChoice(t *testing.T) {
	v := checkGen(t, OneChoice(), 16, 1600)
	// With 100 balls per bin expected, all bins should be within a wide
	// band; a bin at 0 would be astronomically unlikely.
	for i, x := range v {
		if x == 0 {
			t.Errorf("bin %d empty under one-choice with avg 100", i)
		}
	}
}

func TestTwoChoiceBeatsOneChoiceTypically(t *testing.T) {
	// Two-choice discrepancy should be no worse than one-choice on
	// average. Compare means over several seeds.
	var d1, d2 float64
	for seed := uint64(0); seed < 20; seed++ {
		r := rng.New(seed)
		d1 += OneChoice().Generate(256, 256, r).Disc()
		d2 += TwoChoice().Generate(256, 256, r).Disc()
	}
	if d2 >= d1 {
		t.Errorf("two-choice mean disc %g not better than one-choice %g", d2/20, d1/20)
	}
}

func TestDChoiceDegenerate(t *testing.T) {
	// d=1 must behave like one-choice (correct ball count, any spread).
	checkGen(t, DChoice(1), 8, 100)
	// Large d approaches round-robin: with d = n the placement is nearly
	// perfectly balanced.
	v := checkGen(t, DChoice(64), 64, 640)
	if v.Disc() > 1 {
		t.Errorf("Greedy[n] disc = %g, want <= 1", v.Disc())
	}
}

func TestBalanced(t *testing.T) {
	v := checkGen(t, Balanced(), 5, 12)
	if !v.IsPerfect() {
		t.Errorf("balanced not perfect: %v", v)
	}
	if v[0] != 3 || v[4] != 2 {
		t.Errorf("remainder distribution wrong: %v", v)
	}
	// Exactly divisible.
	v2 := checkGen(t, Balanced(), 4, 12)
	for _, x := range v2 {
		if x != 3 {
			t.Errorf("divisible case uneven: %v", v2)
		}
	}
}

func TestDeltaPair(t *testing.T) {
	v := checkGen(t, DeltaPair(1), 8, 32) // avg 4
	if v[0] != 5 || v[1] != 3 {
		t.Errorf("delta-pair wrong: %v", v)
	}
	if v.Disc() != 1 {
		t.Errorf("disc = %g, want 1", v.Disc())
	}
	v3 := checkGen(t, DeltaPair(3), 8, 32)
	if v3[0] != 7 || v3[1] != 1 {
		t.Errorf("delta-pair(3) wrong: %v", v3)
	}
}

func TestImbalancedPairs(t *testing.T) {
	v := checkGen(t, ImbalancedPairs(3), 10, 50) // avg 5
	if v.OverloadedBalls() != 3 {
		t.Errorf("A = %g, want 3", v.OverloadedBalls())
	}
}

func TestHalfSpread(t *testing.T) {
	v := checkGen(t, HalfSpread(2), 8, 32) // avg 4
	for i := 0; i < 4; i++ {
		if v[i] != 6 {
			t.Errorf("heavy bin %d = %d, want 6", i, v[i])
		}
	}
	for i := 4; i < 8; i++ {
		if v[i] != 2 {
			t.Errorf("light bin %d = %d, want 2", i, v[i])
		}
	}
	// Odd n leaves the middle bin at the average.
	v2 := checkGen(t, HalfSpread(1), 5, 15)
	if v2[2] != 3 {
		t.Errorf("middle bin = %d, want 3", v2[2])
	}
}

func TestFromVector(t *testing.T) {
	fixed := Vector{1, 2, 3}
	g := FromVector(fixed)
	v := checkGen(t, g, 3, 6)
	if !v.Equal(fixed) {
		t.Errorf("got %v", v)
	}
	v[0] = 99
	if fixed[0] != 1 {
		t.Error("FromVector returned shared memory")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched n accepted")
			}
		}()
		g.Generate(4, 6, rng.New(1))
	}()
}

func TestGeneratorNames(t *testing.T) {
	gens := []Generator{
		AllInOne(), OneChoice(), TwoChoice(), DChoice(3), Balanced(),
		DeltaPair(1), ImbalancedPairs(2), HalfSpread(1), FromVector(Vector{1}),
	}
	seen := map[string]bool{}
	for _, g := range gens {
		name := g.Name()
		if name == "" {
			t.Error("empty generator name")
		}
		if seen[name] {
			t.Errorf("duplicate generator name %q", name)
		}
		seen[name] = true
	}
	if !strings.Contains(DChoice(3).Name(), "3") {
		t.Error("DChoice name should mention d")
	}
}

func TestGeneratorDeterminismPerSeed(t *testing.T) {
	for _, g := range []Generator{OneChoice(), TwoChoice()} {
		a := g.Generate(16, 64, rng.New(7))
		b := g.Generate(16, 64, rng.New(7))
		if !a.Equal(b) {
			t.Errorf("%s: same seed produced different configurations", g.Name())
		}
	}
}
