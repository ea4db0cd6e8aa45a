package protocols

import (
	"repro/internal/loadvec"
	"repro/internal/rng"
)

// EvenDarMansour is the class-2 selfish rerouting baseline with global
// knowledge ([10], as summarized in §2: "consider selfish load balancing
// protocols with global knowledge (e.g., the average load). This allows
// them to reach perfect balance in expected O(ln ln m + ln n) steps").
//
// Faithful-variant note: we implement their
// identical-machines rule in the form commonly stated for unit tasks —
// in each round, every ball in a bin with load above ⌈∅⌉ is "excess"
// (each bin keeps ⌈∅⌉ residents); each excess ball independently
// migrates, with probability 1/2, to a bin sampled uniformly from the
// bins that were below ⌈∅⌉ at the round start. The probability 1/2
// damping is what prevents the simultaneous-move overshoot oscillation
// the paper's §2 discussion warns about.
type EvenDarMansour struct{}

// Round implements RoundProtocol.
func (EvenDarMansour) Round(cfg *loadvec.Config, r *rng.RNG) {
	n := cfg.N()
	ceilAvg := (cfg.M() + n - 1) / n
	// Snapshot round-start classification.
	var under []int
	for i := 0; i < n; i++ {
		if cfg.Load(i) < ceilAvg {
			under = append(under, i)
		}
	}
	if len(under) == 0 {
		return
	}
	start := cfg.Snapshot()
	for i := 0; i < n; i++ {
		excess := start[i] - ceilAvg
		for b := 0; b < excess; b++ {
			if !r.Bernoulli(0.5) {
				continue
			}
			dst := under[r.Intn(len(under))]
			if dst != i {
				cfg.Move(i, dst)
			}
		}
	}
}

// DistributedSelfish is the class-2 baseline without global knowledge
// ([4], §2: "balls move to a randomly sampled bin with a probability
// depending on the load difference", expected balancing time
// O(ln ln m + n⁴)). The migration rule from [4]: each ball on bin i
// samples a uniform bin j; if ℓ_j < ℓ_i (loads at round start) it
// migrates with probability 1 − ℓ_j/ℓ_i. All balls act simultaneously.
type DistributedSelfish struct{}

// Round implements RoundProtocol.
func (DistributedSelfish) Round(cfg *loadvec.Config, r *rng.RNG) {
	n := cfg.N()
	start := cfg.Snapshot()
	for i := 0; i < n; i++ {
		for b := 0; b < start[i]; b++ {
			j := r.Intn(n)
			li, lj := start[i], start[j]
			if lj >= li || j == i {
				continue
			}
			if r.Bernoulli(1 - float64(lj)/float64(li)) {
				cfg.Move(i, j)
			}
		}
	}
}

// Threshold is the class-3 baseline ([1], §2: "each ball has a threshold
// and moves with a certain probability to a random bin whenever its
// experienced load is above that threshold"). With threshold
// T = Factor·∅ it balances to within a constant multiplicative factor in
// O(ln m) rounds but — unlike RLS — cannot reach perfect balance, because
// below the threshold no ball has any incentive to move (experiment
// CMP3 demonstrates exactly this gap).
type Threshold struct {
	// Factor scales the average load to form the threshold (> 1;
	// [1]'s constant-factor guarantee corresponds to a constant factor
	// like 2).
	Factor float64
	// MoveProb is the per-ball migration probability when above
	// threshold (1/2 in the classical statement).
	MoveProb float64
}

// Round implements RoundProtocol.
func (t Threshold) Round(cfg *loadvec.Config, r *rng.RNG) {
	n := cfg.N()
	thresh := t.Factor * cfg.Avg()
	start := cfg.Snapshot()
	for i := 0; i < n; i++ {
		if float64(start[i]) <= thresh {
			continue
		}
		for b := 0; b < start[i]; b++ {
			if !r.Bernoulli(t.MoveProb) {
				continue
			}
			j := r.Intn(n)
			if j != i {
				cfg.Move(i, j)
			}
		}
	}
}
