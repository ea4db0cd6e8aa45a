package core

import (
	"math"
	"testing"
)

func TestHarmonic(t *testing.T) {
	cases := []struct {
		k    int
		want float64
	}{
		{0, 0}, {1, 1}, {2, 1.5}, {3, 1.5 + 1.0/3}, {4, 1.5 + 1.0/3 + 0.25},
	}
	for _, c := range cases {
		if got := Harmonic(c.k); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("H_%d = %g, want %g", c.k, got, c.want)
		}
	}
	if Harmonic(-3) != 0 {
		t.Error("negative k should give 0")
	}
}

func TestHarmonicAsymptoticConsistency(t *testing.T) {
	// The exact sum at k=256 and the expansion at k=257 must be within
	// 1e-10 of each other's extrapolation.
	exact := 0.0
	for i := 1; i <= 257; i++ {
		exact += 1 / float64(i)
	}
	if got := Harmonic(257); math.Abs(got-exact) > 1e-10 {
		t.Fatalf("Harmonic(257) = %.15g, exact %.15g", got, exact)
	}
	// Growth ~ ln k.
	if math.Abs(Harmonic(100000)-math.Log(100000)-0.5772156649) > 1e-4 {
		t.Error("asymptotics off")
	}
}

func TestTheorem1Formulas(t *testing.T) {
	// m >> n²: the ln n term dominates.
	if v := Theorem1Expectation(100, 1000000); math.Abs(v-math.Log(100)-0.01) > 1e-12 {
		t.Errorf("Theorem1Expectation = %g", v)
	}
	// m = n: the n²/m = n term dominates.
	if v := Theorem1Expectation(100, 100); v < 100 {
		t.Errorf("Theorem1Expectation(100,100) = %g, want >= 100", v)
	}
	// WHP bound is always >= expectation bound (ln n ≥ 1 for n ≥ 3).
	for _, nm := range [][2]int{{8, 8}, {64, 4096}, {1024, 1024}} {
		if Theorem1WHP(nm[0], nm[1]) < Theorem1Expectation(nm[0], nm[1])-1e-9 {
			t.Errorf("WHP bound below expectation bound at %v", nm)
		}
	}
}

func TestLowerBoundAllInOne(t *testing.T) {
	// H_m − H_∅ with m = n: H_n − H_1 ≈ ln n − (1 − γ).
	got := LowerBoundAllInOne(1000, 1000)
	want := Harmonic(1000) - 1
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %g, want %g", got, want)
	}
	// Ω(ln n) for m = n·ln n as well.
	n := 1024
	m := n * 7
	if LowerBoundAllInOne(n, m) < 0.5*math.Log(float64(n))-3 {
		t.Error("lower bound should be Ω(ln n)")
	}
}

func TestLowerBoundDeltaPair(t *testing.T) {
	// n/(∅+1): exact for the ±1 configuration.
	if got := LowerBoundDeltaPair(100, 900); math.Abs(got-10) > 1e-12 {
		t.Fatalf("got %g, want 10", got)
	}
}

func TestLemma8Bound(t *testing.T) {
	// Σ_{r=2..m} n/(r(r−1)) = n·(1 − 1/m) by telescoping.
	n, m := 50, 10
	want := float64(n) * (1 - 1.0/float64(m))
	if got := Lemma8Bound(n, m); math.Abs(got-want) > 1e-9 {
		t.Fatalf("got %g, want %g", got, want)
	}
	// Always < 2n as the paper states (indeed < n).
	if Lemma8Bound(100, 100) >= 200 {
		t.Error("bound exceeds 2n")
	}
}

func TestLemma13Helpers(t *testing.T) {
	n := 1024
	x := 100.0
	shrunk := Lemma13Shrink(x, n)
	want := 2 * math.Sqrt(x*math.Log(float64(n)))
	if math.Abs(shrunk-want) > 1e-12 {
		t.Fatalf("shrink = %g, want %g", shrunk, want)
	}
	// Epoch length ln((∅+x)/(∅−x)) ≤ 4x/∅ for x ≤ ∅/2 (used in the
	// Lemma 12 proof).
	avg := 250.0
	el := Lemma13EpochLength(avg, x)
	if el <= 0 || el > 4*x/avg+1e-9 {
		t.Fatalf("epoch length %g outside (0, 4x/∅]", el)
	}
}
