package rng

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collided on %d of 1000 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := root.Split()
	b := root.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams collided on %d of 1000 draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(99).Split()
	b := New(99).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from %g", i, c, want)
		}
	}
}

func TestInt63nMatchesIntn(t *testing.T) {
	// Intn delegates to Int63n; both must consume identical random bits so
	// existing fixed-seed runs stay byte-identical.
	a, b := New(23), New(23)
	for i := 0; i < 10000; i++ {
		n := 1 + i%1000
		if x, y := a.Intn(n), b.Int63n(int64(n)); int64(x) != y {
			t.Fatalf("draw %d: Intn(%d)=%d, Int63n=%d", i, n, x, y)
		}
	}
}

func TestInt63nLargeRange(t *testing.T) {
	r := New(31)
	const n = int64(1) << 52 // move weights reach m·n, far beyond int32
	for i := 0; i < 10000; i++ {
		if x := r.Int63n(n); x < 0 || x >= n {
			t.Fatalf("Int63n(%d) = %d out of range", n, x)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		sum += r.Float64()
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(6)
	for i := 0; i < 100000; i++ {
		if r.Float64Open() == 0 {
			t.Fatal("Float64Open returned 0")
		}
	}
}

func TestExpMeanAndVariance(t *testing.T) {
	r := New(8)
	for _, lambda := range []float64{0.5, 1, 3, 10} {
		const draws = 100000
		sum, sumsq := 0.0, 0.0
		for i := 0; i < draws; i++ {
			x := r.Exp(lambda)
			if x < 0 {
				t.Fatalf("Exp(%g) negative", lambda)
			}
			sum += x
			sumsq += x * x
		}
		mean := sum / draws
		variance := sumsq/draws - mean*mean
		if math.Abs(mean-1/lambda) > 4/lambda/math.Sqrt(draws)*3 {
			t.Errorf("Exp(%g) mean = %g, want %g", lambda, mean, 1/lambda)
		}
		if math.Abs(variance-1/(lambda*lambda)) > 0.1/(lambda*lambda) {
			t.Errorf("Exp(%g) var = %g, want %g", lambda, variance, 1/(lambda*lambda))
		}
	}
}

func TestExpMemorylessTail(t *testing.T) {
	// P(X > 1/lambda) should be e^{-1}.
	r := New(9)
	const draws = 100000
	lambda := 2.0
	count := 0
	for i := 0; i < draws; i++ {
		if r.Exp(lambda) > 1/lambda {
			count++
		}
	}
	got := float64(count) / draws
	want := math.Exp(-1)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("P(Exp > mean) = %g, want %g", got, want)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(10)
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 1.0} {
		const draws = 50000
		var sum int64
		for i := 0; i < draws; i++ {
			g := r.Geometric(p)
			if g < 1 {
				t.Fatalf("Geometric(%g) = %d < 1", p, g)
			}
			sum += g
		}
		mean := float64(sum) / draws
		want := 1 / p
		if math.Abs(mean-want) > 0.05*want+0.01 {
			t.Errorf("Geometric(%g) mean = %g, want %g", p, mean, want)
		}
	}
}

func TestGeometricMatchesExactPMF(t *testing.T) {
	r := New(12)
	p := 0.3
	const draws = 200000
	counts := map[int64]int{}
	for i := 0; i < draws; i++ {
		counts[r.Geometric(p)]++
	}
	for k := int64(1); k <= 5; k++ {
		want := math.Pow(1-p, float64(k-1)) * p
		got := float64(counts[k]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P(G=%d) = %g, want %g", k, got, want)
		}
	}
}

// TestGeometricTinyPSaturates pins the overflow fix: for p so small that
// the inverse transform exceeds the int64 range, the draw must saturate at
// MaxInt64 (a huge block) rather than wrap through the platform-defined
// float-to-int conversion to MinInt64 and be clamped to 1 (the opposite
// extreme).
func TestGeometricTinyPSaturates(t *testing.T) {
	r := New(15)
	for i := 0; i < 1000; i++ {
		if g := r.Geometric(1e-300); g != math.MaxInt64 {
			t.Fatalf("Geometric(1e-300) = %d, want MaxInt64", g)
		}
	}
	// A tiny-but-representable mean must come out huge and positive, in the
	// right ballpark (mean 1/p = 1e12; individual draws spread widely).
	var max int64
	for i := 0; i < 1000; i++ {
		g := r.Geometric(1e-12)
		if g < 1 {
			t.Fatalf("Geometric(1e-12) = %d < 1", g)
		}
		if g > max {
			max = g
		}
	}
	if max < 1e11 {
		t.Errorf("1000 draws of Geometric(1e-12) peaked at %d, want ≫ 1e11", max)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(16)
	for _, mean := range []float64{0.5, 5, 50, 500} {
		const draws = 40000
		var sum, sumsq float64
		for i := 0; i < draws; i++ {
			v := float64(r.Poisson(mean))
			if v < 0 {
				t.Fatalf("Poisson(%g) negative", mean)
			}
			sum += v
			sumsq += v * v
		}
		gotMean := sum / draws
		gotVar := sumsq/draws - gotMean*gotMean
		se := math.Sqrt(mean / draws)
		if math.Abs(gotMean-mean) > 6*se {
			t.Errorf("Poisson(%g) mean = %g", mean, gotMean)
		}
		if math.Abs(gotVar-mean) > 0.1*mean {
			t.Errorf("Poisson(%g) var = %g", mean, gotVar)
		}
	}
}

// A mean whose count int64 may not hold panics with a message instead of
// returning a wrapped, negative count. NaN comes last: a sampler that
// accepted it would never return.
func TestPoissonHugeMeanPanics(t *testing.T) {
	r := New(18)
	for _, mean := range []float64{1e19, math.Inf(1), 1 << 62, math.NaN()} {
		msg := func() (msg string) {
			defer func() { msg, _ = recover().(string) }()
			r.Poisson(mean)
			return "no panic"
		}()
		if !strings.Contains(msg, "2^62") {
			t.Fatalf("Poisson(%g): %q, want a panic naming the 2^62 limit", mean, msg)
		}
	}
	if k := r.Poisson(1 << 61); k <= 0 {
		t.Fatalf("Poisson(2^61) = %d", k)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	err := quick.Check(func(seed uint64) bool {
		rr := New(seed)
		n := 1 + rr.Intn(200)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShuffleUniformFirstElement(t *testing.T) {
	r := New(20)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		p := r.Perm(n)
		counts[p[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("P(first=%d) count %d, want ~%g", i, c, want)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(21)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	const draws = 100000
	count := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			count++
		}
	}
	got := float64(count) / draws
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %g", got)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(22)
	const draws = 200000
	var sum, sumsq float64
	for i := 0; i < draws; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal var = %g", variance)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(1024)
	}
	_ = sink
}

// The draw-kernel benchmarks take drawBatch draws per iteration and
// report ns/draw, so bench.sh's default 3 iterations still average
// thousands of draws.
const drawBatch = 4096

func reportPerDraw(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(drawBatch*b.N), "ns/draw")
}

// BenchmarkExp times one Exp(m) draw, the direct engine's per-activation
// clock.
func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		for j := 0; j < drawBatch; j++ {
			sink += r.Exp(1000)
		}
	}
	reportPerDraw(b)
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		for j := 0; j < drawBatch; j++ {
			sink += r.NormFloat64()
		}
	}
	reportPerDraw(b)
	_ = sink
}

// BenchmarkGeometric cycles p over the range a jump run sees, from dense
// (most activations productive) to the end-game (p ~ 1/n).
func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	ps := [...]float64{0.9, 0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6}
	var sink int64
	for i := 0; i < b.N; i++ {
		for j := 0; j < drawBatch; j++ {
			sink += r.Geometric(ps[j&7])
		}
	}
	reportPerDraw(b)
	_ = sink
}

// BenchmarkErlang times one Erlang(k, m) draw per shape: k = 1 sums
// ziggurat exponentials, and k = 4 (the first shape past
// erlangSumCutoff), 16 and 64 take Marsaglia–Tsang, whose cost should not
// grow with k.
func BenchmarkErlang(b *testing.B) {
	for _, k := range []int64{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			r := New(1)
			var sink float64
			for i := 0; i < b.N; i++ {
				for j := 0; j < drawBatch; j++ {
					sink += r.Erlang(k, 1024)
				}
			}
			reportPerDraw(b)
			_ = sink
		})
	}
}
