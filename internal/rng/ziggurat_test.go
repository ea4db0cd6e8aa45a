package rng

import (
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
)

// The kernel's law tests draw at α = 0.001 per check from fixed seeds, so
// each verdict is deterministic; a failure means the kernel's law moved.
const (
	zigAlpha = 0.001
	zigZCrit = 3.2905 // two-sided normal quantile at α = 0.001
)

// zigShape describes one ziggurat against its exact law: the density f
// the table was built from, the CDF of the variate's magnitude (|X| for
// the normal), and its total mass Z = ∫₀^∞ f.
type zigShape struct {
	name string
	t    *zigTable
	r, v float64
	f    func(float64) float64
	cdf  func(float64) float64
	z    float64
	draw func(*RNG) float64
}

func zigShapes() []zigShape {
	return []zigShape{
		{
			name: "exp", t: expZig, r: expZigR, v: expZigV,
			f:    func(x float64) float64 { return math.Exp(-x) },
			cdf:  func(x float64) float64 { return -math.Expm1(-x) },
			z:    1,
			draw: func(r *RNG) float64 { return r.Exp(1) },
		},
		{
			name: "normal", t: normZig, r: normZigR, v: normZigV,
			f:    func(x float64) float64 { return math.Exp(-x * x / 2) },
			cdf:  func(x float64) float64 { return math.Erf(x / math.Sqrt2) },
			z:    math.Sqrt(math.Pi / 2),
			draw: func(r *RNG) float64 { return math.Abs(r.NormFloat64()) },
		},
	}
}

// TestZigTableIntegrity checks the tables the recurrences built: the
// edges decrease strictly from the base layer's pseudo-width through r
// to 0, every layer (the base layer's rectangle of height f(r) included)
// has area v to 1e-12 relative, and v is r·f(r) plus the tail mass.
func TestZigTableIntegrity(t *testing.T) {
	for _, s := range zigShapes() {
		x, f := s.t.x, s.t.f
		if x[1] != s.r || x[zigLayers] != 0 {
			t.Errorf("%s: x[1] = %v, x[256] = %v, want r = %v and 0", s.name, x[1], x[zigLayers], s.r)
		}
		for i := 0; i < zigLayers; i++ {
			if !(x[i] > x[i+1]) {
				t.Errorf("%s: edge x[%d] = %v not above x[%d] = %v", s.name, i, x[i], i+1, x[i+1])
			}
			if f[i] != s.f(x[i]) {
				t.Errorf("%s: f[%d] = %v, want f(x[%d]) = %v", s.name, i, f[i], i, s.f(x[i]))
			}
			area := x[i] * (f[i+1] - f[i])
			if i == 0 {
				area = x[0] * f[1]
			}
			if rel := math.Abs(area-s.v) / s.v; rel > 1e-12 {
				t.Errorf("%s: layer %d area %.17g, want v = %.17g (rel %.2g)", s.name, i, area, s.v, rel)
			}
		}
		tail := s.z * (1 - s.cdf(s.r))
		if rel := math.Abs(s.r*s.f(s.r)+tail-s.v) / s.v; rel > 1e-12 {
			t.Errorf("%s: v = %.17g, want r·f(r) + tail = %.17g", s.name, s.v, s.r*s.f(s.r)+tail)
		}
	}
}

// ksOneSample returns the one-sample Kolmogorov–Smirnov statistic of
// xs (sorted in place) against the continuous CDF cdf.
func ksOneSample(xs []float64, cdf func(float64) float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	var d float64
	for i, x := range xs {
		fx := cdf(x)
		d = max(d, float64(i+1)/n-fx, fx-float64(i)/n)
	}
	return d
}

// ksCrit is the asymptotic one-sample KS critical value at level alpha.
func ksCrit(n int, alpha float64) float64 {
	return math.Sqrt(-math.Log(alpha/2)/2) / math.Sqrt(float64(n))
}

// chiSquareCrit is the upper-alpha chi-square quantile with df degrees
// of freedom by the Wilson–Hilferty cube approximation; z is the
// one-sided normal quantile at alpha.
func chiSquareCrit(df int, z float64) float64 {
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// zOneSidedAlpha is the one-sided normal quantile at α = 0.001.
const zOneSidedAlpha = 3.0902

// zigStrip returns the layer i whose strip [x[i+1], x[i]) holds x ≥ 0,
// or 0 for the tail x ≥ r.
func zigStrip(t *zigTable, x float64) int {
	if x >= t.x[1] {
		return 0
	}
	// x[1..256] decreases; find the last i with x[i] > x.
	lo, hi := 1, zigLayers
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if t.x[mid] > x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// TestZigLaw draws 10⁶ variates of Exp(1) and of |N(0,1)| (through the
// public Exp and NormFloat64) and checks them against the exact law:
//   - a one-sample KS test against the exact CDF;
//   - a chi-square over the 255 strips [x[i+1], x[i]) plus the tail;
//   - a z-test of the tail mass beyond r, which only the base layer's
//     tail path produces;
//   - a z-test of the wedge mass: a draw at x in strip i came from the
//     wedge of layer i with probability w(x) = 1 − f(x[i])/f(x) (the
//     lower layers' rectangles give density f(x[i]) there), so the mean
//     of w estimates the exact wedge mass
//     Σ_i [∫ f over the strip − (x[i] − x[i+1])·f(x[i])] / Z.
func TestZigLaw(t *testing.T) {
	const draws = 1_000_000
	for si, s := range zigShapes() {
		r := New(uint64(101 + si))
		xs := make([]float64, draws)
		counts := make([]int, zigLayers)
		var tailCount int
		var wSum, wSumSq float64
		for k := range xs {
			x := s.draw(r)
			if !(x > 0) || math.IsInf(x, 0) {
				t.Fatalf("%s: draw %d = %v, want finite and positive", s.name, k, x)
			}
			xs[k] = x
			i := zigStrip(s.t, x)
			counts[i]++
			if i == 0 {
				tailCount++
				continue
			}
			w := 1 - s.t.f[i]/s.f(x)
			wSum += w
			wSumSq += w * w
		}

		if d, crit := ksOneSample(xs, s.cdf), ksCrit(draws, zigAlpha); d > crit {
			t.Errorf("%s: KS D = %.5f > %.5f against the exact CDF", s.name, d, crit)
		}

		// Strip masses: strip 0 is the tail beyond r.
		var chi float64
		for i, c := range counts {
			hi := math.Inf(1)
			if i > 0 {
				hi = s.t.x[i]
			}
			p := s.cdf(hi) - s.cdf(s.t.x[i+1])
			if i == 0 {
				p = 1 - s.cdf(s.r)
			}
			e := p * draws
			chi += (float64(c) - e) * (float64(c) - e) / e
		}
		if crit := chiSquareCrit(zigLayers-1, zOneSidedAlpha); chi > crit {
			t.Errorf("%s: strip chi-square %.1f > %.1f (df %d)", s.name, chi, crit, zigLayers-1)
		}

		pTail := 1 - s.cdf(s.r)
		if z := (float64(tailCount) - pTail*draws) / math.Sqrt(draws*pTail*(1-pTail)); math.Abs(z) > zigZCrit {
			t.Errorf("%s: %d draws beyond r, want %.1f (z = %.2f)", s.name, tailCount, pTail*draws, z)
		}

		var wedge float64
		for i := 1; i < zigLayers; i++ {
			lo, hi := s.t.x[i+1], s.t.x[i]
			wedge += (s.z*(s.cdf(hi)-s.cdf(lo)) - (hi-lo)*s.t.f[i]) / s.z
		}
		mean := wSum / draws
		sd := math.Sqrt((wSumSq - draws*mean*mean) / (draws - 1))
		if z := (mean - wedge) / (sd / math.Sqrt(draws)); math.Abs(z) > zigZCrit {
			t.Errorf("%s: wedge mass %.6f, want %.6f (z = %.2f)", s.name, mean, wedge, z)
		}
	}
}

// TestZigTailLaw checks the tail paths on their own, which the
// whole-law tests above cannot resolve (under 0.05% of draws land beyond
// r): of 2·10⁷ draws, the ~9 000 exponentials and ~5 000 |normals|
// beyond r must follow the exact conditional tail law
// P(X ≤ x | X > r) = (F(x) − F(r)) / (1 − F(r)) by a one-sample KS test.
func TestZigTailLaw(t *testing.T) {
	const draws = 20_000_000
	for si, s := range zigShapes() {
		r := New(uint64(111 + si))
		var tail []float64
		for k := 0; k < draws; k++ {
			if x := s.draw(r); x > s.r {
				tail = append(tail, x)
			}
		}
		fr := s.cdf(s.r)
		cond := func(x float64) float64 { return (s.cdf(x) - fr) / (1 - fr) }
		if d, crit := ksOneSample(tail, cond), ksCrit(len(tail), zigAlpha); d > crit {
			t.Errorf("%s: %d draws beyond r, KS D = %.4f > %.4f against the conditional tail law", s.name, len(tail), d, crit)
		}
	}
}

// TestNormalKS checks the signed normal: a one-sample KS test of 10⁶
// NormFloat64 draws against Φ.
func TestNormalKS(t *testing.T) {
	const draws = 1_000_000
	r := New(103)
	xs := make([]float64, draws)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	phi := func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
	if d, crit := ksOneSample(xs, phi), ksCrit(draws, zigAlpha); d > crit {
		t.Errorf("normal: KS D = %.5f > %.5f against Φ", d, crit)
	}
}

// TestNormalSignIndependent checks that the sign is a fair coin
// independent of the magnitude: within each |X| band (the wedge-heavy
// top layers, the body, the tail) half the draws must be positive, by a
// chi-square over the bands.
func TestNormalSignIndependent(t *testing.T) {
	const draws = 1_000_000
	edges := []float64{0, 0.25, 0.5, 1, 1.5, 2, 2.5, 3, normZigR, math.Inf(1)}
	n := make([]int, len(edges)-1)
	pos := make([]int, len(edges)-1)
	r := New(104)
	for i := 0; i < draws; i++ {
		x := r.NormFloat64()
		a := math.Abs(x)
		b := sort.Search(len(edges), func(j int) bool { return edges[j] > a }) - 1
		n[b]++
		if x > 0 {
			pos[b]++
		}
	}
	var chi float64
	for b := range n {
		if n[b] == 0 {
			t.Fatalf("band [%g, %g) drew nothing", edges[b], edges[b+1])
		}
		d := float64(pos[b]) - float64(n[b])/2
		chi += d * d / (float64(n[b]) / 4)
	}
	if crit := chiSquareCrit(len(n), zOneSidedAlpha); chi > crit {
		t.Errorf("sign vs magnitude chi-square %.1f > %.1f: positives %v of %v", chi, crit, pos, n)
	}
}

// TestErlangKS checks Erlang(k, rate) against the exact Erlang CDF on
// both sides of erlangSumCutoff, rescaled to rate 1.
func TestErlangKS(t *testing.T) {
	const draws = 200_000
	const rate = 4.0
	for _, k := range []int64{1, 2, 5, erlangSumCutoff, erlangSumCutoff + 1, 64} {
		r := New(uint64(200 + k))
		xs := make([]float64, draws)
		for i := range xs {
			xs[i] = r.Erlang(k, rate) * rate
		}
		if d, crit := ksOneSample(xs, func(x float64) float64 { return stats.ErlangCDF(k, x) }), ksCrit(draws, zigAlpha); d > crit {
			t.Errorf("Erlang(%d): KS D = %.5f > %.5f against the exact CDF", k, d, crit)
		}
	}
}

// TestGeometricChiSquare bins Geometric(p) draws at the quantiles of the
// exact law, P(G ≤ g) = 1 − (1−p)^g, and chi-square tests the bin counts,
// from dense p down to the end-game's tiny p.
func TestGeometricChiSquare(t *testing.T) {
	const draws = 200_000
	const bins = 20
	for pi, p := range []float64{0.9, 0.5, 0.1, 1e-2, 1e-4, 1e-6, 1e-9} {
		cdf := func(g int64) float64 { return -math.Expm1(float64(g) * math.Log1p(-p)) }
		// Upper bin edges: the smallest g with CDF ≥ j/bins, deduplicated;
		// the last bin is open.
		var upper []int64
		for j := 1; j < bins; j++ {
			g := int64(math.Ceil(math.Log1p(-float64(j)/bins) / math.Log1p(-p)))
			if len(upper) == 0 || g > upper[len(upper)-1] {
				upper = append(upper, g)
			}
		}
		counts := make([]int, len(upper)+1)
		r := New(uint64(300 + pi))
		for i := 0; i < draws; i++ {
			g := r.Geometric(p)
			if g < 1 {
				t.Fatalf("Geometric(%g) = %d < 1", p, g)
			}
			counts[sort.Search(len(upper), func(b int) bool { return g <= upper[b] })]++
		}
		var chi float64
		prev := 0.0
		for b, c := range counts {
			hi := 1.0
			if b < len(upper) {
				hi = cdf(upper[b])
			}
			e := (hi - prev) * draws
			prev = hi
			chi += (float64(c) - e) * (float64(c) - e) / e
		}
		if crit := chiSquareCrit(len(counts)-1, zOneSidedAlpha); chi > crit {
			t.Errorf("Geometric(%g): chi-square %.1f > %.1f over %d bins %v", p, chi, crit, len(counts), counts)
		}
	}
}

// TestKernelStreamPin pins the bits of the first 16 outputs of Exp(1),
// NormFloat64, Geometric(0.01) and Erlang(k, 1) (k cycling through both
// Erlang paths) from fresh seed-1 generators. Any change to the draw
// kernel fails here first, in this package, before the engine goldens.
func TestKernelStreamPin(t *testing.T) {
	erlangShapes := []int64{1, 2, erlangSumCutoff, erlangSumCutoff + 1, 16, 64}
	var exp, norm, geo, erl [16]uint64
	re, rn, rg, rk := New(1), New(1), New(1), New(1)
	for i := range exp {
		exp[i] = math.Float64bits(re.Exp(1))
		norm[i] = math.Float64bits(rn.NormFloat64())
		geo[i] = uint64(rg.Geometric(0.01))
		erl[i] = math.Float64bits(rk.Erlang(erlangShapes[i%len(erlangShapes)], 1))
	}
	got := map[string][16]uint64{"Exp": exp, "NormFloat64": norm, "Geometric": geo, "Erlang": erl}
	want := map[string][16]uint64{
		"Exp": {
			0x3fe4299973c69f99, 0x3fcf534dd87003d5, 0x40034e1fae0aeb5f, 0x3fde84ea7991c220,
			0x3ff4835533bcb476, 0x3fe038273a32fbe3, 0x3fa2fbd0504208ef, 0x3fe035e205f00046,
			0x4008c1fa4da1ccdd, 0x3fdb70f520e7df6c, 0x3fe6dd4241e8132a, 0x3ff2d49301baea12,
			0x3fd630672cd93491, 0x3fff8915c40b720e, 0x3fdada3ffbb85bbf, 0x40085edd8ea801be,
		},
		"NormFloat64": {
			0x3fe7ce06c09208f3, 0x3fd7c171454ecfad, 0xbff7fba70d88d6c7, 0xbfdfe30ff7b8b802,
			0x3ff21f5608135c21, 0xbfd5be0fe9bd5007, 0x3faba98ec471ceb7, 0x3fe05aee1cf24e97,
			0x4000842ba9557b82, 0xbfe1220a686354fd, 0x3fecb5d141781b28, 0x3ff39a92e2ab0646,
			0x3fe269e100456e3d, 0x3ff6d9d1b476c454, 0xbfe17846c1be84fc, 0xc0008f24dfd6b33b,
		},
		"Geometric": {63, 25, 241, 48, 128, 51, 4, 51, 308, 43, 72, 118, 35, 197, 42, 304},
		"Erlang": {
			0x3fe4299973c69f99, 0x400543548b91eb9c, 0x40022051b79d5178, 0x400e2b35abe59e69,
			0x4039576926ef3faf, 0x4051c6382ba96c3a, 0x3fd630672cd93491, 0x40031fd2e17cc47f,
			0x4012ccefdbeff686, 0x400c92177306f583, 0x402a67d0a501812c, 0x405147bdc16b21c6,
			0x3ff017a3d24c70df, 0x3fe5d7a3721878fa, 0x4011619209ceca70, 0x400d077343aacbed,
		},
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s stream moved:\n got %#x\nwant %#x", name, g, w)
		}
	}
}
