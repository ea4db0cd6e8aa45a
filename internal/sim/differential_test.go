package sim

import (
	"testing"

	"repro/internal/graphs"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// The differential harness instantiated at the sim layer for the graph
// jump engine: it and the direct engine running graphs.GraphRLS consume
// randomness differently (the jump chain tallies null activations in one
// Poisson draw per run), so only their balancing-time laws are comparable.

// graphArm builds a fingerprint arm: a fresh engine over the topology —
// the graph jump engine, or with jump false the direct engine running
// GraphRLS — from an all-in-one start, run to perfection.
func graphArm(g graphs.Graph, m int, jump bool) testutil.Arm {
	return func(seed uint64) testutil.Fingerprint {
		v := make(loadvec.Vector, g.N())
		v[0] = m
		var e *Engine
		if jump {
			e = NewGraphJumpEngine(v, g, rng.New(seed))
		} else {
			e = NewEngine(v, graphs.GraphRLS{G: g}, rng.New(seed))
		}
		res := e.Run(UntilPerfect(), 100_000_000)
		return testutil.Fingerprint{
			Time:        res.Time,
			Activations: res.Activations,
			Moves:       res.Moves,
			Final:       append([]int(nil), res.Final...),
		}
	}
}

// TestGraphJumpVsDirectSameLaw holds the exact admissible index to the
// direct engine's balancing-time law on every bounded-degree catalogue
// family and on the dense random 16-regular graph BenchmarkGraphDense
// runs (m = 4n). α = 0.001 like the other always-on law gates (A8 runs
// larger instances at α = 0.01).
func TestGraphJumpVsDirectSameLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("law comparison needs replications")
	}
	for _, g := range []graphs.Graph{
		graphs.Ring{Vertices: 16},
		graphs.Torus2D{Side: 4},
		graphs.Hypercube{Dim: 4},
		graphs.Expander{Side: 4},
	} {
		testutil.SameLaw(t, "jump-vs-direct/"+g.Name(),
			0xD1FF+uint64(g.N())*131, 300, 0.001,
			graphArm(g, 2*g.N(), true),
			graphArm(g, 2*g.N(), false))
	}
	rr, err := graphs.NewRandomRegularSeed(64, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	testutil.SameLaw(t, "jump-vs-direct/random-16-regular",
		0xD1FF+64*131+1, 300, 0.001,
		graphArm(rr, 4*rr.N(), true),
		graphArm(rr, 4*rr.N(), false))
}
