// Package hetero implements the two heterogeneous extensions that §7 of
// the paper poses as future directions:
//
//  1. bins with speeds — "the load of a bin is defined as its number of
//     balls divided by its speed. One can consider a similar protocol to
//     RLS: a ball chooses a random bin on activation, and moves there if
//     and only if doing so improves its load";
//  2. weighted balls — "can we obtain similar balancing times in the
//     weighted case as in the non-weighted case?".
//
// Both generalize the notion of balance: the natural fixed points are
// Nash equilibria (no single ball can improve its experienced load by
// moving), which for unit speeds and weights coincide with perfectly
// balanced configurations.
package hetero

import (
	"fmt"
	"math"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// SpeedRLS is the §7 speed extension as a sim.Mover: a ball in bin i
// (experienced load ℓ_i/s_i) samples a uniform destination i′ and moves
// iff its experienced load strictly improves: (ℓ_{i′}+1)/s_{i′} < ℓ_i/s_i.
// With all speeds equal this is StrictRLS; since balls remain identical,
// it runs on the standard engine.
type SpeedRLS struct {
	// Speeds holds s_i > 0 per bin.
	Speeds []float64
}

// NewSpeedRLS validates the speed vector.
func NewSpeedRLS(speeds []float64) (SpeedRLS, error) {
	for i, s := range speeds {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return SpeedRLS{}, fmt.Errorf("hetero: invalid speed %g at bin %d", s, i)
		}
	}
	return SpeedRLS{Speeds: speeds}, nil
}

// Decide implements sim.Mover.
func (s SpeedRLS) Decide(cfg *loadvec.Config, src int, r *rng.RNG) (int, bool) {
	dst := r.Intn(cfg.N())
	if dst == src {
		return dst, false
	}
	cur := float64(cfg.Load(src)) / s.Speeds[src]
	next := float64(cfg.Load(dst)+1) / s.Speeds[dst]
	return dst, next < cur
}

// SpeedDisc returns the speed-normalized discrepancy
// max_i |ℓ_i/s_i − m/S| with S = Σ s_j — the natural generalization of
// disc(ℓ) (to which it reduces when all speeds are 1).
func SpeedDisc(v loadvec.Vector, speeds []float64) float64 {
	total := 0.0
	for _, s := range speeds {
		total += s
	}
	target := float64(v.Balls()) / total
	worst := 0.0
	for i, l := range v {
		if d := math.Abs(float64(l)/speeds[i] - target); d > worst {
			worst = d
		}
	}
	return worst
}

// IsSpeedNash reports whether no single ball can strictly improve its
// experienced load: for every non-empty bin i and every bin j,
// (ℓ_j+1)/s_j ≥ ℓ_i/s_i. These are the absorbing states of SpeedRLS.
func IsSpeedNash(v loadvec.Vector, speeds []float64) bool {
	maxCur := 0.0
	for i, l := range v {
		if l == 0 {
			continue
		}
		if c := float64(l) / speeds[i]; c > maxCur {
			maxCur = c
		}
	}
	minNext := math.Inf(1)
	for j, l := range v {
		if c := float64(l+1) / speeds[j]; c < minNext {
			minNext = c
		}
	}
	return minNext >= maxCur-1e-12
}

// UniformSpeeds returns n speeds all equal to 1.
func UniformSpeeds(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// BimodalSpeeds returns n speeds where a fraction fracFast of bins run at
// `fast` and the rest at 1.
func BimodalSpeeds(n int, fast float64, fracFast float64) []float64 {
	s := UniformSpeeds(n)
	cut := int(float64(n) * fracFast)
	for i := 0; i < cut; i++ {
		s[i] = fast
	}
	return s
}

// PowerLawSpeeds returns n speeds s_i = (i+1)^(−alpha) scaled so the
// fastest bin has speed 1 — a heavy-tailed heterogeneity profile.
func PowerLawSpeeds(n int, alpha float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Pow(float64(i+1), -alpha)
	}
	return s
}
