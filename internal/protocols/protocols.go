// Package protocols implements the baseline load-balancing protocols that
// §2 of the paper compares RLS against:
//
//   - the Czumaj–Riley–Scheideler local-search protocol [9] (class 1),
//   - selfish rerouting with global knowledge, after Even-Dar and
//     Mansour [10] (class 2),
//   - distributed selfish balancing without global knowledge, after
//     Berenbrink et al. [4] (class 2), and
//   - threshold load balancing, after Ackermann et al. [1] (class 3).
//
// The selfish and threshold protocols are *synchronous*: in each round
// every ball acts simultaneously on the loads observed at the round
// start. The paper (§2) notes one such round corresponds to one time unit
// of RLS, in which m balls are activated in expectation; the CMP
// experiments use that correspondence.
package protocols

import (
	"repro/internal/loadvec"
	"repro/internal/rng"
)

// RoundProtocol is a synchronous protocol advancing in global rounds.
type RoundProtocol interface {
	// Round executes one synchronous round, mutating cfg.
	Round(cfg *loadvec.Config, r *rng.RNG)
}

// RunRounds drives a synchronous protocol until stop returns true or
// maxRounds elapse, returning the number of rounds executed and whether
// the stop condition was met.
func RunRounds(p RoundProtocol, cfg *loadvec.Config, r *rng.RNG, stop func(*loadvec.Config) bool, maxRounds int) (int, bool) {
	if stop(cfg) {
		return 0, true
	}
	for round := 1; round <= maxRounds; round++ {
		p.Round(cfg, r)
		if stop(cfg) {
			return round, true
		}
	}
	return maxRounds, false
}

// Perfect is a stop condition for RunRounds: disc < 1.
func Perfect(cfg *loadvec.Config) bool { return cfg.IsPerfect() }

// BalancedWithin returns a stop condition: disc ≤ x.
func BalancedWithin(x float64) func(*loadvec.Config) bool {
	return func(cfg *loadvec.Config) bool { return cfg.IsBalanced(x) }
}
