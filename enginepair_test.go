package rls

import (
	"testing"

	"repro/internal/testutil"
)

// This file adapts the Runner to internal/testutil's differential
// harness and hosts the shared placement × target grid every
// byte-identical engine pair is pinned over. The P = 1 sharded pins in
// sharded_test.go instantiate it instead of hand-rolling comparison
// loops.

// runnerArm builds a harness arm from a Runner configuration: the seed
// becomes WithSeed, and the fingerprint carries the §6 phase-crossing
// times as bit-compared Extra invariants.
func runnerArm(t *testing.T, n, m int, opts ...Option) testutil.Arm {
	return func(seed uint64) testutil.Fingerprint {
		t.Helper()
		res, err := New(n, m, append([]Option{WithSeed(seed)}, opts...)...).Run()
		if err != nil {
			t.Fatalf("arm run (n=%d m=%d seed=%d): %v", n, m, seed, err)
		}
		return testutil.Fingerprint{
			Time:        res.Time,
			Activations: res.Activations,
			Moves:       res.Moves,
			Final:       res.Final,
			Extra:       []float64{res.Phases.LogBalanced, res.Phases.OneBalanced, res.Phases.Perfect},
		}
	}
}

// enginePairCase is one cell of the shared grid: a shape, a pinned seed,
// and the placement/target options both arms run under.
type enginePairCase struct {
	name string
	n, m int
	seed uint64
	opts []Option
}

func enginePairCases() []enginePairCase {
	return []enginePairCase{
		{"all-in-one/n=32,m=256,seed=42", 32, 256, 42, nil},
		{"random/n=128,m=1024,seed=11", 128, 1024, 11, []Option{WithPlacement(Random())}},
		{"two-choice/disc-target/n=16,m=160,seed=7", 16, 160,
			7, []Option{WithPlacement(TwoChoice()), WithTarget(UntilBalanced(2))}},
		{"time-target/n=64,m=640,seed=3", 64, 640,
			3, []Option{WithTarget(UntilTime(2.5))}},
		{"delta-pair/n=48,m=480,seed=9", 48, 480,
			9, []Option{WithPlacement(DeltaPair(3))}},
	}
}

// testEnginePairByteIdentical runs the reference configuration against
// the candidate configuration over the whole grid, requiring bit-equal
// fingerprints per case.
func testEnginePairByteIdentical(t *testing.T, ref, cand []Option) {
	for _, c := range enginePairCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			refOpts := append(append([]Option{}, ref...), c.opts...)
			candOpts := append(append([]Option{}, cand...), c.opts...)
			testutil.ByteIdentical(t, c.name, []uint64{c.seed},
				runnerArm(t, c.n, c.m, refOpts...),
				runnerArm(t, c.n, c.m, candOpts...))
		})
	}
}
