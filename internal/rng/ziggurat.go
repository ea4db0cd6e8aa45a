package rng

import "math"

// Ziggurat samplers for the unit exponential and the standard normal
// (Marsaglia & Tsang 2000, "The Ziggurat Method for Generating Random
// Variables"), with 256 layers of equal area v under the unnormalized
// density f (e^{−x}, or e^{−x²/2} for the half-normal).
//
// Layer 0 is the base strip: the rectangle [0, r] × [0, f(r)] plus the
// tail beyond r, together of area v = r·f(r) + ∫_r^∞ f, drawn as a
// rectangle of pseudo-width x[0] = v/f(r). Layer i ≥ 1 is the rectangle
// [0, x[i]] × [f(x[i]), f(x[i+1])], with x[1] = r, the closed-form
// recurrence x[i+1] = f⁻¹(f(x[i]) + v/x[i]), and x[256] = 0. A draw picks
// a layer and a uniform point u·x[i] across it; the point is accepted at
// once when it lies left of the next edge x[i+1] (about 97.8% of draws
// for the exponential, 98.5% for the normal). Otherwise it falls in the
// base layer's tail, drawn from exponentials (r + E for the exponential,
// Marsaglia's tail method for the normal), or in a wedge strip
// [x[i+1], x[i]), where a uniform height is tested against f(x) — the
// only math.Exp call. No draw evaluates a logarithm.
//
// One Uint64 feeds a draw: bits 0–7 pick the layer, bit 8 is the normal's
// sign, and bits 12–63 are the magnitude. Disjoint bits keep the layer,
// sign and magnitude independent, which avoids the correlation Doornik
// (2005) found where the original shares bits between layer and value.

const zigLayers = 256

// zigTable holds a ziggurat's layer edges x[0..256] (x[0] the base
// layer's pseudo-width, x[1] = r, x[256] = 0, decreasing) and the density
// at each edge, f[i] = f(x[i]).
type zigTable struct {
	x, f [zigLayers + 1]float64
}

// newZigTable builds the layers for the tail edge r and the common layer
// area v from the density f and its inverse finv.
func newZigTable(r, v float64, f, finv func(float64) float64) *zigTable {
	t := &zigTable{}
	t.x[0] = v / f(r)
	t.x[1] = r
	for i := 1; i < zigLayers-1; i++ {
		t.x[i+1] = finv(f(t.x[i]) + v/t.x[i])
	}
	t.x[zigLayers] = 0
	for i := range t.x {
		t.f[i] = f(t.x[i])
	}
	return t
}

// The 256-layer tail edges are Marsaglia & Tsang's; each layer area v
// follows from its r in closed form.
const (
	expZigR  = 7.69711747013104972
	normZigR = 3.6541528853610088
)

var (
	// expZigV = r·e^{−r} + e^{−r}.
	expZigV = (expZigR + 1) * math.Exp(-expZigR)
	// normZigV = r·e^{−r²/2} + √(π/2)·erfc(r/√2).
	normZigV = normZigR*math.Exp(-normZigR*normZigR/2) + math.Sqrt(math.Pi/2)*math.Erfc(normZigR/math.Sqrt2)

	expZig = newZigTable(expZigR, expZigV,
		func(x float64) float64 { return math.Exp(-x) },
		func(y float64) float64 { return -math.Log(y) })
	normZig = newZigTable(normZigR, normZigV,
		func(x float64) float64 { return math.Exp(-x * x / 2) },
		func(y float64) float64 { return math.Sqrt(-2 * math.Log(y)) })
)

// zigMagnitude maps bits 12–63 of b to a uniform value in (0, 1), never
// exactly 0 or 1.
func zigMagnitude(b uint64) float64 {
	return (float64(b>>12) + 0.5) * 0x1p-52
}

// exp1 returns an Exp(1) variate, strictly positive. A draw in the tail
// beyond r is r plus a fresh Exp(1) by memorylessness, so the tail costs
// another ziggurat draw, not a logarithm.
func (r *RNG) exp1() float64 {
	t := expZig
	off := 0.0
	for {
		b := r.Uint64()
		i := b & (zigLayers - 1)
		x := zigMagnitude(b) * t.x[i]
		if x < t.x[i+1] {
			return off + x
		}
		if i == 0 {
			off += expZigR
			continue
		}
		if t.f[i]+(t.f[i+1]-t.f[i])*r.Float64() < math.Exp(-x) {
			return off + x
		}
	}
}

// NormFloat64 returns a standard normal variate from the 256-layer
// ziggurat: on the fast path (about 98.5% of draws) one Uint64, a
// multiply and a compare. The tail beyond r uses Marsaglia's exact method
// with ziggurat exponentials (x = E₁/r, y = E₂, accept r + x when
// 2y > x²), so no draw evaluates a logarithm; only the wedge strips call
// math.Exp.
func (r *RNG) NormFloat64() float64 {
	t := normZig
	for {
		b := r.Uint64()
		i := b & (zigLayers - 1)
		x := zigMagnitude(b) * t.x[i]
		if x >= t.x[i+1] {
			if i == 0 {
				for {
					x = r.exp1() / normZigR
					y := r.exp1()
					if y+y > x*x {
						break
					}
				}
				x += normZigR
			} else if t.f[i]+(t.f[i+1]-t.f[i])*r.Float64() >= math.Exp(-0.5*x*x) {
				continue
			}
		}
		// Bit 8 of b moves to the sign bit.
		return math.Float64frombits(math.Float64bits(x) | (b&0x100)<<55)
	}
}
