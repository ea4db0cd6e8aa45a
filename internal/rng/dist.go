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
