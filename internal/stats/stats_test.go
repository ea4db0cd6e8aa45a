package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Var() != 0 {
		t.Fatal("zero Summary not empty")
	}
	s.AddAll([]float64{1, 2, 3, 4, 5})
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %g", s.Mean())
	}
	if math.Abs(s.Var()-2.5) > 1e-12 {
		t.Errorf("Var = %g, want 2.5", s.Var())
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Add(7)
	if s.Mean() != 7 || s.Var() != 0 {
		t.Fatalf("single observation summary wrong: %+v", s)
	}
}

func TestSummaryNegativeValues(t *testing.T) {
	var s Summary
	s.AddAll([]float64{-3, -1, -2})
	if s.Mean() != -2 {
		t.Errorf("Mean = %g", s.Mean())
	}
	if math.Abs(s.Var()-1) > 1e-12 {
		t.Errorf("Var = %g, want 1", s.Var())
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		var s Summary
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
			s.Add(xs[i])
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(n-1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Var()-naiveVar) < 1e-6
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSummaryCI95ShrinksWithN(t *testing.T) {
	r := rng.New(1)
	var small, large Summary
	for i := 0; i < 100; i++ {
		small.Add(r.NormFloat64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(r.NormFloat64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %g vs %g", large.CI95(), small.CI95())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Input must not be modified.
	if xs[0] != 5 {
		t.Error("Quantile modified its input")
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestECDFAt(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); got != c.want {
			t.Errorf("At(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(0) != 0 || e.N() != 0 {
		t.Fatal("empty ECDF misbehaves")
	}
}

func TestDominatesIdentical(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ok, rep := Dominates(xs, xs, 0)
	if !ok || rep.MaxViolation != 0 {
		t.Fatalf("identical samples should dominate trivially: %+v", rep)
	}
}

func TestDominatesShifted(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 3, 4, 5, 6} // b = a + 1, so b dominates a
	if ok, rep := Dominates(a, b, 0); !ok {
		t.Fatalf("shifted sample should dominate: %+v", rep)
	}
	// And a does NOT dominate b.
	if ok, _ := Dominates(b, a, 0); ok {
		t.Fatal("reverse dominance should fail")
	}
}

func TestDominatesDetectsViolation(t *testing.T) {
	a := []float64{10, 10, 10}
	b := []float64{1, 20, 20}
	ok, rep := Dominates(a, b, 0)
	if ok {
		t.Fatal("expected violation")
	}
	if rep.MaxViolation < 1.0/3-1e-12 {
		t.Errorf("violation magnitude %g, want >= 1/3", rep.MaxViolation)
	}
}

func TestDominatesWithNoise(t *testing.T) {
	// Two samples from the same distribution should dominate each other
	// within a DKW band at reasonable alpha.
	r := rng.New(42)
	const n = 2000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = r.Exp(1)
		b[i] = r.Exp(1)
	}
	eps := 2 * DKWEps(n, 0.001)
	if ok, rep := Dominates(a, b, eps); !ok {
		t.Fatalf("same-law samples flagged as non-dominating: %+v (eps=%g)", rep, eps)
	}
	if ok, rep := Dominates(b, a, eps); !ok {
		t.Fatalf("same-law samples flagged as non-dominating (swapped): %+v", rep)
	}
}

func TestDKWEps(t *testing.T) {
	if e := DKWEps(0, 0.05); e != 1 {
		t.Errorf("DKWEps(0) = %g", e)
	}
	e1 := DKWEps(100, 0.05)
	e2 := DKWEps(10000, 0.05)
	if e2 >= e1 {
		t.Error("DKW band must shrink with n")
	}
	want := math.Sqrt(math.Log(2/0.05) / 200)
	if math.Abs(e1-want) > 1e-12 {
		t.Errorf("DKWEps(100, .05) = %g, want %g", e1, want)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	f := LinearFit(xs, ys)
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("R2 = %g, want 1", f.R2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	r := rng.New(3)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 5 - 0.5*xs[i] + r.NormFloat64()
	}
	f := LinearFit(xs, ys)
	if math.Abs(f.Slope+0.5) > 0.01 {
		t.Errorf("slope = %g, want ~-0.5", f.Slope)
	}
	if f.R2 < 0.9 {
		t.Errorf("R2 = %g too low", f.R2)
	}
}

func TestPowerFitRecoversExponent(t *testing.T) {
	xs := []float64{10, 20, 40, 80, 160}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	f := PowerFit(xs, ys)
	if math.Abs(f.Slope-1.5) > 1e-9 {
		t.Fatalf("exponent = %g, want 1.5", f.Slope)
	}
	if math.Abs(math.Exp(f.Intercept)-3) > 1e-9 {
		t.Fatalf("constant = %g, want 3", math.Exp(f.Intercept))
	}
}

func TestPowerFitPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	PowerFit([]float64{1, 0}, []float64{1, 1})
}

func TestRatioSpread(t *testing.T) {
	xs := []float64{1, 2, 4}
	ys := []float64{2, 6, 8}
	lo, hi := RatioSpread(xs, ys)
	if lo != 2 || hi != 3 {
		t.Fatalf("spread = (%g, %g), want (2, 3)", lo, hi)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}
