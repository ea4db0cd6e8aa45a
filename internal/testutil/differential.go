// Package testutil provides the differential test harness: a reusable
// property test that runs two constructions of the same stochastic
// process and asserts the right flavour of agreement.
//
// Two engines that share every random draw (same seed, same draw order)
// must agree *byte for byte* — identical stop times to the last bit,
// identical move counts, identical final configurations. Two engines
// that consume randomness differently (an exact sampler against a
// rejection sampler, a direct run against its jump chain) can only agree
// *in law* — their balancing-time distributions must be statistically
// indistinguishable. The harness packages both checks over a common
// fingerprint type so every engine-equivalence test in the repo — the
// P = 1 sharded pins, the exact-vs-hybrid graph sampler pair, future
// engine modes — states its claim the same way instead of hand-rolling
// comparison loops.
package testutil

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// Fingerprint is one run's identity for differential comparison. Arms
// fill what their engines expose; the harness compares what is present.
type Fingerprint struct {
	// Time is the continuous stop time of the run.
	Time float64
	// Activations and Moves count ball activations and protocol moves.
	Activations, Moves int64
	// Final is the final load vector.
	Final []int
	// Extra holds any further float64 invariants (e.g. phase-crossing
	// times); compared bit-exactly by ByteIdentical, ignored by SameLaw.
	Extra []float64
	// MoveSeq, if recorded, is the ordered (src, dst) move sequence;
	// compared element-wise by ByteIdentical, ignored by SameLaw.
	MoveSeq [][2]int
}

// Arm produces one run's fingerprint from a seed. The two arms of a
// differential test must interpret the seed the same way (ByteIdentical)
// or independently (SameLaw — the harness decorrelates the streams
// itself, so arms may share an interpretation).
type Arm func(seed uint64) Fingerprint

// ByteIdentical asserts the two arms produce bit-identical fingerprints
// for every seed: equal Time under math.Float64bits (NaN-safe, no
// epsilon), equal counters, equal final loads, equal Extra words, equal
// move sequences. This is the claim behind the repo's "P = 1 sharded ≡
// direct" and "auto sampler ≡ exact sampler" pins: not
// just the same law, the same draws.
func ByteIdentical(t *testing.T, name string, seeds []uint64, a, b Arm) {
	t.Helper()
	for _, seed := range seeds {
		fa, fb := a(seed), b(seed)
		if math.Float64bits(fa.Time) != math.Float64bits(fb.Time) {
			t.Errorf("%s seed %d: time %v vs %v", name, seed, fa.Time, fb.Time)
		}
		if fa.Activations != fb.Activations || fa.Moves != fb.Moves {
			t.Errorf("%s seed %d: counters (%d, %d) vs (%d, %d)",
				name, seed, fa.Activations, fa.Moves, fb.Activations, fb.Moves)
		}
		if len(fa.Final) != len(fb.Final) {
			t.Errorf("%s seed %d: final over %d vs %d bins", name, seed, len(fa.Final), len(fb.Final))
		} else {
			for i := range fa.Final {
				if fa.Final[i] != fb.Final[i] {
					t.Errorf("%s seed %d: final[%d] = %d vs %d", name, seed, i, fa.Final[i], fb.Final[i])
					break
				}
			}
		}
		if len(fa.Extra) != len(fb.Extra) {
			t.Errorf("%s seed %d: %d vs %d extra invariants", name, seed, len(fa.Extra), len(fb.Extra))
		} else {
			for i := range fa.Extra {
				if math.Float64bits(fa.Extra[i]) != math.Float64bits(fb.Extra[i]) {
					t.Errorf("%s seed %d: extra[%d] = %v vs %v", name, seed, i, fa.Extra[i], fb.Extra[i])
					break
				}
			}
		}
		if len(fa.MoveSeq) != len(fb.MoveSeq) {
			t.Errorf("%s seed %d: %d vs %d moves recorded", name, seed, len(fa.MoveSeq), len(fb.MoveSeq))
		} else {
			for i := range fa.MoveSeq {
				if fa.MoveSeq[i] != fb.MoveSeq[i] {
					t.Errorf("%s seed %d: move %d is %v vs %v", name, seed, i, fa.MoveSeq[i], fb.MoveSeq[i])
					break
				}
			}
		}
	}
}

// armSeedSalt decorrelates the two arms' seed sequences so the KS test's
// independence assumption holds even when both arms feed the seed to the
// same RNG construction (correlated samples would bias the test toward
// agreement — a silently weakened gate).
const armSeedSalt = 0x9e3779b97f4a7c15

// SameLaw asserts the two arms' stop-time laws are KS-indistinguishable
// at level alpha over reps independent runs per arm: the claim for pairs
// that cannot share draws, like the exact admissible index against the
// rejection-within-blocks sampler. Seeds derive from seed0 with the two
// arms salted apart.
func SameLaw(t *testing.T, name string, seed0 uint64, reps int, alpha float64, a, b Arm) {
	t.Helper()
	ta := make([]float64, reps)
	tb := make([]float64, reps)
	for i := 0; i < reps; i++ {
		s := seed0 + uint64(i)*0x5851f42d4c957f2d
		ta[i] = a(s).Time
		tb[i] = b(s ^ armSeedSalt).Time
	}
	same, d := stats.SameDistribution(ta, tb, alpha)
	if !same {
		t.Errorf("%s: stop-time laws differ (KS D = %.4f at α = %g over %d reps)", name, d, alpha, reps)
	}
}
