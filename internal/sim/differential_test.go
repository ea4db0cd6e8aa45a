package sim

import (
	"testing"

	"repro/internal/graphs"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// The differential harness instantiated at the sim layer for the graph
// sampler pair. The claims, per testutil's taxonomy:
//
//   - auto ≡ exact at every degree, byte for byte — the two
//     constructions are the same sampler, so every draw, move, and clock
//     must coincide (this doubles as the resolution regression at engine
//     granularity: if auto ever resolved differently, move sequences
//     would diverge on the first event);
//   - exact vs forced-rejection agree in law — the hybrid consumes
//     randomness differently (flagged nulls burn draws), so only the
//     balancing-time distribution is comparable.

// graphArm builds a fingerprint arm: a fresh engine over the topology in
// the given sampler mode, all-in-one start, run to perfection with the
// move sequence recorded.
func graphArm(g Topology, m int, mode GraphSamplerMode) testutil.Arm {
	return func(seed uint64) testutil.Fingerprint {
		v := make(loadvec.Vector, g.N())
		v[0] = m
		e := NewGraphJumpEngineMode(v, g, mode, rng.New(seed))
		var moves [][2]int
		e.PostMove = func(_ *Engine, src, dst int) {
			moves = append(moves, [2]int{src, dst})
		}
		res := e.Run(UntilPerfect(), 100_000_000)
		final := make([]int, len(res.Final))
		copy(final, res.Final)
		return testutil.Fingerprint{
			Time:        res.Time,
			Activations: res.Activations,
			Moves:       res.Moves,
			Final:       final,
			MoveSeq:     moves,
		}
	}
}

// catalogueTopologies is the bounded-degree set where both sampler paths
// exist and auto must pick exact.
func catalogueTopologies() []Topology {
	return []Topology{
		graphs.Ring{Vertices: 16},
		graphs.Torus2D{Side: 4},
		graphs.Hypercube{Dim: 4},
		graphs.Expander{Side: 4},
	}
}

func topoName(g Topology) string {
	if n, ok := g.(interface{ Name() string }); ok {
		return n.Name()
	}
	return "topology"
}

func TestGraphSamplerAutoByteIdenticalToExact(t *testing.T) {
	dense, err := graphs.NewRandomRegularSeed(64, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range append(catalogueTopologies(), dense) {
		testutil.ByteIdentical(t, "auto-vs-exact/"+topoName(g),
			[]uint64{1, 42, 0xA11CE},
			graphArm(g, 4*g.N(), GraphSamplerAuto),
			graphArm(g, 4*g.N(), GraphSamplerExact))
	}
}

func TestGraphSamplerExactVsRejectionSameLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("law comparison needs replications")
	}
	// Forcing rejection on bounded-degree topologies is exactly where the
	// hybrid's bounds are loosest relative to W_G — the hardest regime
	// for the coupling to be wrong quietly, and the one place both
	// samplers run on identical graphs. α = 0.001 like the other
	// always-on law gates (A8 runs the dense families at α = 0.01).
	for _, g := range catalogueTopologies() {
		testutil.SameLaw(t, "exact-vs-rejection/"+topoName(g),
			0xD1FF+uint64(g.N())*131, 300, 0.001,
			graphArm(g, 2*g.N(), GraphSamplerExact),
			graphArm(g, 2*g.N(), GraphSamplerRejection))
	}
	// The dense-degree family the hybrid was built for, m = 4n as in
	// BenchmarkGraphDense.
	rr, err := graphs.NewRandomRegularSeed(64, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	testutil.SameLaw(t, "exact-vs-rejection/random-16-regular",
		0xD1FF+64*131+1, 300, 0.001,
		graphArm(rr, 4*rr.N(), GraphSamplerExact),
		graphArm(rr, 4*rr.N(), GraphSamplerRejection))
}
