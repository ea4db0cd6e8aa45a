package hetero

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// WeightedEngine simulates the §7 weighted-balls extension. Ball b has
// weight w_b > 0; the load of a bin is the sum of the weights of its
// balls, and each ball experiences its bin's load. Every ball carries an
// independent rate-1 exponential clock (as in §3); on activation it
// samples a uniform destination bin and moves iff its experienced load
// strictly improves: ℓ_dst + w_b < ℓ_src.
//
// Ball identity matters here (moves depend on the mover's weight), so
// this engine tracks balls explicitly rather than reusing sim.Engine.
// With all weights equal to 1 it coincides with StrictRLS.
type WeightedEngine struct {
	weights []float64
	ballBin []int
	loads   []float64
	n       int
	r       *rng.RNG

	time        float64
	activations int64
}

// NewWeightedEngine places ball b in bins[b] with weight weights[b].
func NewWeightedEngine(n int, weights []float64, bins []int, r *rng.RNG) (*WeightedEngine, error) {
	if len(weights) != len(bins) {
		return nil, fmt.Errorf("hetero: %d weights but %d placements", len(weights), len(bins))
	}
	if len(weights) == 0 || n <= 0 {
		return nil, fmt.Errorf("hetero: need at least one ball and one bin")
	}
	e := &WeightedEngine{
		weights: append([]float64(nil), weights...),
		ballBin: append([]int(nil), bins...),
		loads:   make([]float64, n),
		n:       n,
		r:       r,
	}
	for b, w := range weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("hetero: invalid weight %g for ball %d", w, b)
		}
		if bins[b] < 0 || bins[b] >= n {
			return nil, fmt.Errorf("hetero: ball %d placed in invalid bin %d", b, bins[b])
		}
		e.loads[bins[b]] += w
	}
	return e, nil
}

// Time returns elapsed continuous time.
func (e *WeightedEngine) Time() float64 { return e.time }

// TotalWeight returns Σ w_b.
func (e *WeightedEngine) TotalWeight() float64 {
	t := 0.0
	for _, w := range e.weights {
		t += w
	}
	return t
}

// Disc returns max_i |ℓ_i − W/n|, the weighted discrepancy.
func (e *WeightedEngine) Disc() float64 {
	target := e.TotalWeight() / float64(e.n)
	worst := 0.0
	for _, l := range e.loads {
		if d := math.Abs(l - target); d > worst {
			worst = d
		}
	}
	return worst
}

// Step performs one activation; returns whether the ball moved.
func (e *WeightedEngine) Step() bool {
	e.time += e.r.Exp(float64(len(e.weights)))
	b := e.r.Intn(len(e.weights))
	src := e.ballBin[b]
	dst := e.r.Intn(e.n)
	e.activations++
	if dst == src {
		return false
	}
	w := e.weights[b]
	if e.loads[dst]+w >= e.loads[src]-1e-12 {
		return false
	}
	e.loads[src] -= w
	e.loads[dst] += w
	e.ballBin[b] = dst
	return true
}

// IsNash reports whether no ball has a strictly improving move: for every
// ball b, min_j ℓ_j + w_b ≥ ℓ_{bin(b)} (within floating tolerance).
// These are the absorbing states; at a Nash equilibrium the discrepancy
// is at most max_b w_b (moving any witness ball to the min bin would
// otherwise improve it).
func (e *WeightedEngine) IsNash() bool {
	minLoad := math.Inf(1)
	for _, l := range e.loads {
		if l < minLoad {
			minLoad = l
		}
	}
	for b, w := range e.weights {
		if e.loads[e.ballBin[b]]-w > minLoad+1e-9 {
			return false
		}
	}
	return true
}

// RunUntilNash steps until a Nash equilibrium is reached or the
// activation budget is exhausted; the equilibrium check (O(m)) runs every
// checkEvery activations. Returns whether equilibrium was certified.
func (e *WeightedEngine) RunUntilNash(maxActivations, checkEvery int64) bool {
	if checkEvery <= 0 {
		checkEvery = 64
	}
	if e.IsNash() {
		return true
	}
	for e.activations < maxActivations {
		e.Step()
		if e.activations%checkEvery == 0 && e.IsNash() {
			return true
		}
	}
	return e.IsNash()
}

// UniformWeights returns m unit weights.
func UniformWeights(m int) []float64 {
	w := make([]float64, m)
	for i := range w {
		w[i] = 1
	}
	return w
}

// BimodalWeights returns m weights where a fraction fracHeavy are `heavy`
// and the rest are 1.
func BimodalWeights(m int, heavy float64, fracHeavy float64) []float64 {
	w := UniformWeights(m)
	cut := int(float64(m) * fracHeavy)
	for i := 0; i < cut; i++ {
		w[i] = heavy
	}
	return w
}

// ZipfWeights returns m weights w_b = rank^(−alpha) over a random
// permutation of ranks, scaled so the largest weight is 1.
func ZipfWeights(m int, alpha float64, r *rng.RNG) []float64 {
	w := make([]float64, m)
	perm := r.Perm(m)
	for i := range w {
		w[i] = math.Pow(float64(perm[i]+1), -alpha)
	}
	return w
}

// AllInBin returns a placement of m balls in bin 0 — the weighted
// analogue of the worst-case start.
func AllInBin(m, bin int) []int {
	p := make([]int, m)
	for i := range p {
		p[i] = bin
	}
	return p
}
