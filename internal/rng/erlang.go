package rng

import "math"

// erlangSumCutoff is the largest shape for which Erlang sums exponentials
// directly. Each summand is one ziggurat Exp(1) draw (~7 ns on a 2-vCPU
// Xeon); Marsaglia–Tsang costs one ziggurat normal, one uniform, a square
// root and, on ~2% of proposals, two logarithms (~20 ns) at any shape.
// Summing wins through k = 2, the two tie at k = 3, and Marsaglia–Tsang
// wins from k = 4 on (BenchmarkErlang tracks both sides).
const erlangSumCutoff = 3

// Erlang returns a Gamma(k, rate) variate for integer shape k ≥ 1 — the
// law of the sum of k independent Exp(rate) gaps. The jump engine uses it
// to advance continuous time over a geometrically distributed block of
// null activations in O(1) instead of drawing the k gaps one by one.
//
// Both paths are exact samplers: shapes up to erlangSumCutoff sum
// ziggurat exponentials, larger shapes use the Marsaglia–Tsang rejection
// method (exact for shape ≥ 1) with a ziggurat normal. It panics unless
// k ≥ 1 and rate > 0.
func (r *RNG) Erlang(k int64, rate float64) float64 {
	if k < 1 {
		panic("rng: Erlang with shape < 1")
	}
	if rate <= 0 {
		panic("rng: Erlang with non-positive rate")
	}
	if k <= erlangSumCutoff {
		s := 0.0
		for i := int64(0); i < k; i++ {
			s += r.exp1()
		}
		return s / rate
	}
	return r.gammaMT(float64(k)) / rate
}

// gammaMT samples Gamma(shape, 1) for shape ≥ 1 with the Marsaglia–Tsang
// (2000) squeeze method: x ~ N(0,1), v = (1+cx)³, accept when
// ln U < x²/2 + d − dv + d·ln v with d = shape − 1/3, c = 1/√(9d).
// The squeeze accepts ~98% of proposals without the logarithm.
func (r *RNG) gammaMT(shape float64) float64 {
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9.0*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1.0 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1.0-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
}
