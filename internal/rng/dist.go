package rng

import (
	"fmt"
	"math"
)

// Exp returns an exponential variate with rate lambda (mean 1/lambda),
// strictly positive: a 256-layer ziggurat Exp(1) draw divided by lambda.
// The fast path (about 97.8% of draws) takes one Uint64 and evaluates no
// logarithm; only the wedge strips call math.Exp. It panics if
// lambda <= 0.
//
// The paper's process is driven entirely by exponential clocks: each of the
// m balls rings at rate 1, so the superposition rings at rate m and the
// engine draws Exp(m) inter-activation gaps.
func (r *RNG) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	return r.exp1() / lambda
}

// Geometric returns a geometric variate with success probability p,
// counting the number of trials up to and including the first success
// (support {1, 2, ...}, mean 1/p). It panics unless 0 < p <= 1.
//
// Sampling is ⌈E / −ln(1−p)⌉ with E a ziggurat Exp(1) draw, which is
// exact (P(⌈E/c⌉ > k) = e^{−kc} = (1−p)^k) and O(1) regardless of p: one
// math.Log1p and no math.Log. For tiny p the quotient can exceed the
// int64 range; the result saturates at math.MaxInt64 rather than relying
// on Go's platform-defined out-of-range float-to-int conversion (which on
// amd64 yields MinInt64 — the opposite extreme of the correct huge block).
func (r *RNG) Geometric(p float64) int64 {
	if p <= 0 || p > 1 {
		panic("rng: Geometric with p outside (0,1]")
	}
	if p == 1 {
		return 1
	}
	gf := math.Ceil(r.exp1() / -math.Log1p(-p))
	if gf >= math.MaxInt64 {
		return math.MaxInt64
	}
	g := int64(gf)
	if g < 1 {
		g = 1
	}
	return g
}

// Binomial returns a Bin(n, p) variate.
//
// For small n·min(p,1-p) it uses the exact geometric-skip method (expected
// O(np) work); for large means it uses inversion by counting exponential
// arrivals is too slow, so it falls back to an exact BTRS-style rejection
// sampler. Both paths are exact samplers of the binomial law.
func (r *RNG) Binomial(n int64, p float64) int64 {
	if n < 0 {
		panic("rng: Binomial with negative n")
	}
	if n == 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	flipped := false
	if p > 0.5 {
		p = 1 - p
		flipped = true
	}
	var k int64
	if float64(n)*p < 30 {
		k = r.binomialGeomSkip(n, p)
	} else {
		k = r.binomialBTRS(n, p)
	}
	if flipped {
		k = n - k
	}
	return k
}

// binomialGeomSkip counts successes by jumping between them with geometric
// gaps. Expected work is O(np + 1). The gap is compared against the
// remaining trials before being added so a saturated Geometric draw
// (tiny p) terminates instead of overflowing pos.
func (r *RNG) binomialGeomSkip(n int64, p float64) int64 {
	var count, pos int64
	for {
		g := r.Geometric(p)
		if g > n-pos {
			return count
		}
		pos += g
		count++
	}
}

// binomialBTRS is the transformed-rejection sampler of Hörmann (1993),
// exact for np >= 10 and p <= 0.5. Constants follow the BTRS variant.
func (r *RNG) binomialBTRS(n int64, p float64) int64 {
	nf := float64(n)
	q := 1 - p
	spq := math.Sqrt(nf * p * q)
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b
	alpha := (2.83 + 5.1/b) * spq
	lpq := math.Log(p / q)
	mode := int64(math.Floor((nf + 1) * p))
	h := lgammaInt(mode+1) + lgammaInt(n-mode+1)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + c)
		if kf < 0 || kf > nf {
			continue
		}
		k := int64(kf)
		if us >= 0.07 && v <= vr {
			return k
		}
		v = math.Log(v * alpha / (a/(us*us) + b))
		if v <= h-lgammaInt(k+1)-lgammaInt(n-k+1)+float64(k-mode)*lpq {
			return k
		}
	}
}

// lgammaInt returns ln(Γ(x)) = ln((x-1)!) for positive integer arguments.
func lgammaInt(x int64) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
}

// Poisson returns a Poisson variate with the given mean, using Knuth's
// product method for small means and the PTRS transformed-rejection
// sampler for large means. Both are exact. It panics on a negative mean,
// and on a NaN mean or one of 2^62 or more, whose count int64 may not
// hold.
func (r *RNG) Poisson(mean float64) int64 {
	if mean < 0 {
		panic("rng: Poisson with negative mean")
	}
	if !(mean < 1<<62) {
		panic(fmt.Sprintf("rng: Poisson mean %g is not below 2^62", mean))
	}
	if mean == 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		var k int64
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	return r.poissonPTRS(mean)
}

// poissonPTRS is Hörmann's transformed-rejection Poisson sampler, exact for
// mean >= 10.
func (r *RNG) poissonPTRS(mu float64) int64 {
	b := 0.931 + 2.53*math.Sqrt(mu)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	lmu := math.Log(mu)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + mu + 0.43)
		if kf < 0 {
			continue
		}
		k := int64(kf)
		if us >= 0.07 && v <= vr {
			return k
		}
		if us < 0.013 && v > us {
			continue
		}
		lhs := math.Log(v * invAlpha / (a/(us*us) + b))
		if lhs <= -mu+kf*lmu-lgammaInt(k+1) {
			return k
		}
	}
}

// Zipf samples from a Zipf law on [1, n] with P(k) proportional to 1/k^s.
// It precomputes the cumulative weights once and samples by binary search,
// which is exact and O(log n) per draw. Used by the workload generators
// for skewed initial placements.
type Zipf struct {
	cum []float64 // cum[k-1] = normalized CDF at k
}

// NewZipf builds a Zipf sampler over {1, ..., n} with exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		panic("rng: NewZipf with n < 1")
	}
	if s <= 0 {
		panic("rng: NewZipf with non-positive exponent")
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 1; k <= n; k++ {
		total += math.Pow(float64(k), -s)
		cum[k-1] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1 // guard against rounding
	return &Zipf{cum: cum}
}

// Draw returns the next Zipf variate in [1, n].
func (z *Zipf) Draw(r *RNG) int64 {
	u := r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int64(lo + 1)
}
