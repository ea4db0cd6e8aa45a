package hetero

import (
	"math"
	"testing"

	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

func TestNewSpeedRLSValidation(t *testing.T) {
	if _, err := NewSpeedRLS([]float64{1, 0}); err == nil {
		t.Error("zero speed accepted")
	}
	if _, err := NewSpeedRLS([]float64{1, -2}); err == nil {
		t.Error("negative speed accepted")
	}
	if _, err := NewSpeedRLS([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN speed accepted")
	}
	if _, err := NewSpeedRLS([]float64{1, 2.5}); err != nil {
		t.Errorf("valid speeds rejected: %v", err)
	}
}

func TestSpeedRLSUnitSpeedsMatchesStrictRule(t *testing.T) {
	// With unit speeds the rule (ℓ_dst+1)/1 < ℓ_src/1 is exactly
	// StrictRLS's ℓ_src > ℓ_dst + 1.
	cfg := loadvec.NewConfig(loadvec.Vector{3, 2, 1})
	mover, _ := NewSpeedRLS(UniformSpeeds(3))
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		dst, move := mover.Decide(cfg, 0, r)
		if move && dst != 2 {
			t.Fatalf("unit-speed mover moved 0→%d (loads 3→%d)", dst, cfg.Load(dst))
		}
	}
}

func TestSpeedRLSReachesNash(t *testing.T) {
	n := 16
	speeds := BimodalSpeeds(n, 4, 0.25)
	mover, err := NewSpeedRLS(speeds)
	if err != nil {
		t.Fatal(err)
	}
	v := loadvec.AllInOne().Generate(n, 160, nil)
	e := sim.NewEngine(v, mover, rng.New(2))
	stop := func(e *sim.Engine) bool { return IsSpeedNash(e.Cfg().Loads(), speeds) }
	res := e.Run(stop, 10_000_000)
	if !res.Stopped {
		t.Fatalf("no Nash reached; final %v", res.Final)
	}
	// Fast bins should carry more load: compare mean load of fast vs slow.
	fast, slow := 0.0, 0.0
	for i, l := range res.Final {
		if speeds[i] > 1 {
			fast += float64(l)
		} else {
			slow += float64(l)
		}
	}
	fast /= float64(n) * 0.25
	slow /= float64(n) * 0.75
	if fast <= slow {
		t.Errorf("fast bins carry %g mean load vs slow %g", fast, slow)
	}
}

func TestSpeedDisc(t *testing.T) {
	v := loadvec.Vector{4, 2}
	speeds := []float64{2, 1}
	// S = 3, target = 6/3 = 2; experienced: 4/2=2, 2/1=2 → disc 0.
	if d := SpeedDisc(v, speeds); d > 1e-12 {
		t.Fatalf("disc = %g, want 0", d)
	}
	// Unit speeds reduce to Vector.Disc.
	v2 := loadvec.Vector{5, 1, 3}
	if math.Abs(SpeedDisc(v2, UniformSpeeds(3))-v2.Disc()) > 1e-12 {
		t.Fatal("unit-speed disc mismatch")
	}
}

func TestIsSpeedNash(t *testing.T) {
	speeds := []float64{2, 1}
	// {4,2}: experienced 2 and 2; moving a ball: to bin0 → 5/2=2.5 ≥ 2;
	// to bin1 → 3/1 = 3 ≥ 2 → Nash.
	if !IsSpeedNash(loadvec.Vector{4, 2}, speeds) {
		t.Error("balanced speed config not Nash")
	}
	// {6,0}: ball at bin0 experiences 3; moving to bin1 → 1/1 = 1 < 3 →
	// improving move exists.
	if IsSpeedNash(loadvec.Vector{6, 0}, speeds) {
		t.Error("imbalanced config reported Nash")
	}
}

func TestSpeedGenerators(t *testing.T) {
	u := UniformSpeeds(4)
	for _, s := range u {
		if s != 1 {
			t.Fatal("uniform speeds not 1")
		}
	}
	b := BimodalSpeeds(8, 3, 0.5)
	if b[0] != 3 || b[3] != 3 || b[4] != 1 {
		t.Fatalf("bimodal speeds wrong: %v", b)
	}
	p := PowerLawSpeeds(5, 1)
	if p[0] != 1 {
		t.Fatal("power-law fastest speed should be 1")
	}
	for i := 1; i < 5; i++ {
		if p[i] >= p[i-1] {
			t.Fatal("power-law speeds should decrease")
		}
	}
}

func TestWeightedEngineValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := NewWeightedEngine(2, []float64{1}, []int{0, 1}, r); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewWeightedEngine(2, []float64{-1}, []int{0}, r); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewWeightedEngine(2, []float64{1}, []int{5}, r); err == nil {
		t.Error("invalid bin accepted")
	}
	if _, err := NewWeightedEngine(0, nil, nil, r); err == nil {
		t.Error("empty system accepted")
	}
}

func TestWeightedEngineConservation(t *testing.T) {
	r := rng.New(2)
	m, n := 50, 8
	e, err := NewWeightedEngine(n, BimodalWeights(m, 5, 0.2), RandomPlacement(m, n, r), r)
	if err != nil {
		t.Fatal(err)
	}
	total := e.TotalWeight()
	for i := 0; i < 20000; i++ {
		e.Step()
	}
	sum := 0.0
	for _, l := range e.loads {
		sum += l
	}
	if math.Abs(sum-total) > 1e-6 {
		t.Fatalf("weight not conserved: %g vs %g", sum, total)
	}
}

func TestWeightedUnitWeightsReachPerfectBalance(t *testing.T) {
	// Unit weights = StrictRLS: Nash states are perfectly balanced
	// configurations.
	r := rng.New(3)
	m, n := 64, 16
	e, err := NewWeightedEngine(n, UniformWeights(m), AllInBin(m, 0), r)
	if err != nil {
		t.Fatal(err)
	}
	if !e.RunUntilNash(5_000_000, 16) {
		t.Fatal("unit-weight engine did not reach Nash")
	}
	loads := e.loads
	min, max := loads[0], loads[0]
	for _, l := range loads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min > 1+1e-9 {
		t.Fatalf("unit-weight Nash not perfectly balanced: min %g max %g", min, max)
	}
}

func TestWeightedNashDiscBoundedByMaxWeight(t *testing.T) {
	// At any Nash equilibrium, disc ≤ max_b w_b: experiment X2's
	// theoretical floor.
	for seed := uint64(0); seed < 5; seed++ {
		r := rng.New(seed)
		m, n := 80, 10
		heavy := 7.0
		weights := BimodalWeights(m, heavy, 0.1)
		e, err := NewWeightedEngine(n, weights, AllInBin(m, 0), r)
		if err != nil {
			t.Fatal(err)
		}
		if !e.RunUntilNash(20_000_000, 32) {
			t.Fatal("did not reach Nash")
		}
		if e.Disc() > heavy+1e-6 {
			t.Fatalf("seed %d: Nash disc %g exceeds max weight %g", seed, e.Disc(), heavy)
		}
	}
}

func TestWeightedIsNashDetectsImprovingMove(t *testing.T) {
	r := rng.New(4)
	// Two balls of weight 1 in bin 0, bin 1 empty: ball can improve
	// (0 + 1 < 2).
	e, err := NewWeightedEngine(2, []float64{1, 1}, []int{0, 0}, r)
	if err != nil {
		t.Fatal(err)
	}
	if e.IsNash() {
		t.Fatal("improving move exists but Nash reported")
	}
	// One ball anywhere is Nash.
	e2, _ := NewWeightedEngine(3, []float64{5}, []int{1}, r)
	if !e2.IsNash() {
		t.Fatal("single ball must be Nash")
	}
}

func TestWeightGenerators(t *testing.T) {
	w := BimodalWeights(10, 4, 0.3)
	if w[0] != 4 || w[2] != 4 || w[3] != 1 {
		t.Fatalf("bimodal weights wrong: %v", w)
	}
	z := ZipfWeights(20, 1.5, rng.New(5))
	maxW := 0.0
	for _, x := range z {
		if x <= 0 || x > 1 {
			t.Fatalf("zipf weight %g outside (0,1]", x)
		}
		if x > maxW {
			maxW = x
		}
	}
	if maxW != 1 {
		t.Fatalf("largest zipf weight = %g, want 1", maxW)
	}
}

func TestWeightedTimeAccounting(t *testing.T) {
	r := rng.New(6)
	const m = 40
	e, _ := NewWeightedEngine(4, UniformWeights(m), AllInBin(m, 0), r)
	for i := 0; i < 20000; i++ {
		e.Step()
	}
	want := 20000.0 / m
	if math.Abs(e.Time()-want) > 0.1*want {
		t.Fatalf("time = %g, want ~%g", e.Time(), want)
	}
}

// RandomPlacement places each of m balls in a uniform bin.
func RandomPlacement(m, n int, r *rng.RNG) []int {
	p := make([]int, m)
	for i := range p {
		p[i] = r.Intn(n)
	}
	return p
}
