package rls

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/hetero"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Spec is the shape of one simulated process: which engine simulates
// RLS, under which tie rule, on which topology, with which bin speeds,
// and — for the sharded engine — with how many workers and what epoch.
// Runner and Session both hold one; the Runner's With* options set its
// fields, rlsim's flags, rlsd's JSON config and the snapshot header all
// decode into one, and the experiment harness builds every direct and
// jump engine it runs through Spec.Engine. The sharded engine is
// Runner-only.
//
// Validate is the only place that decides which shapes are legal:
//
//   - DirectEngine takes every field except Shards and ShardEpoch. Speeds
//     need one entry per bin, each positive and finite, and combine with
//     neither a topology nor the strict tie rule.
//   - JumpEngine takes the strict tie rule or a topology, not both; it
//     rejects Speeds.
//   - ShardedEngine (Runner only) runs plain RLS on the complete topology
//     only: no Strict, Topology or Speeds; Shards and ShardEpoch
//     must not be negative (0 picks the defaults).
//   - Shards and ShardEpoch are rejected outside ShardedEngine.
//   - The topology must fit n: see Topology.
//
// Sessions additionally reject ShardedEngine and Speeds: a Session holds
// one sequential engine and has no speed-aware rule. Spec.NewSession returns
// that error before it validates.
type Spec struct {
	Mode       EngineMode
	Strict     bool
	Topology   Topology
	Speeds     []float64
	Shards     int
	ShardEpoch float64
}

// ErrSessionSpec is Spec.NewSession's answer to a Spec naming the sharded
// engine or carrying Speeds.
var ErrSessionSpec = errors.New("rls: sessions support neither the sharded engine nor bin speeds; use a Runner")

// Validate reports whether the spec describes a process over n bins that
// some engine can simulate; the error names the first conflict found.
func (s Spec) Validate(n int) error {
	if n < 1 {
		return fmt.Errorf("rls: need at least one bin, n=%d", n)
	}
	topo := s.Topology.active()
	switch s.Mode {
	case DirectEngine:
		if s.Speeds != nil {
			if len(s.Speeds) != n {
				return fmt.Errorf("rls: %d speeds for %d bins", len(s.Speeds), n)
			}
			if topo {
				return fmt.Errorf("rls: speeds and topology cannot be combined yet")
			}
			if s.Strict {
				return fmt.Errorf("rls: speeds and the strict tie rule cannot be combined")
			}
			if _, err := hetero.NewSpeedRLS(s.Speeds); err != nil {
				return err
			}
		}
	case JumpEngine:
		if s.Speeds != nil {
			return fmt.Errorf("rls: the jump engine does not support bin speeds; use DirectEngine")
		}
	case ShardedEngine:
		if s.Strict || topo || s.Speeds != nil {
			return fmt.Errorf("rls: the %s engine supports neither the strict tie rule, nor topologies, nor bin speeds; DirectEngine supports all three, JumpEngine the first two", s.Mode)
		}
		if s.Shards < 0 {
			return fmt.Errorf("rls: %d shards", s.Shards)
		}
		if s.ShardEpoch < 0 {
			return fmt.Errorf("rls: negative shard epoch %g", s.ShardEpoch)
		}
		return nil
	default:
		return fmt.Errorf("rls: unknown engine mode %d", s.Mode)
	}
	if s.Shards != 0 || s.ShardEpoch != 0 {
		return fmt.Errorf("rls: shards and shard epochs need the sharded engine, not the %s engine", s.Mode)
	}
	if s.Strict && topo {
		return fmt.Errorf("rls: strict tie rule on a topology is not supported")
	}
	return s.Topology.check(n)
}

// Engine builds the direct or jump engine this spec names over the
// initial loads v, drawing from stream: the construction a Runner or
// Session makes, without a placement, target or session around it. An
// illegal spec (Validate(len(v))'s error), the Runner-only sharded engine
// and a nil stream are returned as errors, not panics.
//
// Engine is the module's internal entry point, for packages such as
// internal/harness that drive an engine by hand: its signature names
// internal types, so code outside this module cannot call it.
func (s Spec) Engine(v loadvec.Vector, stream *rng.RNG) (*sim.Engine, error) {
	if err := s.Validate(len(v)); err != nil {
		return nil, err
	}
	if s.Mode == ShardedEngine {
		return nil, fmt.Errorf("rls: the %s engine is Runner-only; Spec.Engine builds the direct and jump engines", s.Mode)
	}
	if stream == nil {
		return nil, errors.New("rls: Spec.Engine needs a random stream")
	}
	return s.build(v, stream)
}

// build constructs the direct or jump engine over the initial loads v,
// drawing from stream (Runner.run builds the sharded engine itself). The
// spec must have passed Validate(len(v)).
func (s Spec) build(v loadvec.Vector, stream *rng.RNG) (*sim.Engine, error) {
	var g graphs.Graph
	if s.Topology.active() {
		var err error
		if g, err = s.Topology.graph(len(v)); err != nil {
			return nil, err
		}
	}
	if s.Mode == JumpEngine {
		switch {
		case g != nil:
			return sim.NewGraphJumpEngine(v, g, stream), nil
		case s.Strict:
			return sim.NewStrictJumpEngine(v, stream), nil
		}
		return sim.NewJumpEngine(v, stream), nil
	}
	var mover sim.Mover = core.RLS{}
	switch {
	case s.Speeds != nil:
		mover = hetero.SpeedRLS{Speeds: s.Speeds}
	case g != nil:
		mover = graphs.GraphRLS{G: g}
	case s.Strict:
		mover = core.StrictRLS{}
	}
	return sim.NewEngine(v, mover, stream), nil
}

// validateSession is Validate for a session over n bins: ErrSessionSpec
// first, then Validate's answer.
func (s Spec) validateSession(n int) error {
	if s.Mode == ShardedEngine || s.Speeds != nil {
		return ErrSessionSpec
	}
	return s.Validate(n)
}

// NewSession creates a session with n empty bins running this spec, or
// returns the error that makes the spec illegal for a session (see Spec).
func (s Spec) NewSession(n int, seed uint64) (*Session, error) {
	if err := s.validateSession(n); err != nil {
		return nil, err
	}
	stream := rng.New(seed)
	e, err := s.build(make(loadvec.Vector, n), stream)
	if err != nil {
		return nil, err
	}
	return &Session{spec: s, engine: e, stream: stream}, nil
}

// topologyFamily indexes topologyFamilies; the index is the family's
// snapshot wire code, so the order is frozen.
type topologyFamily int

const (
	completeFamily topologyFamily = iota
	ringFamily
	torusFamily
	hypercubeFamily
	expanderFamily
	randomRegularFamily
)

// topologyFamilies is the one table of topology families: the wire name
// (random-regular's is random-<d>-regular), the parameter a bare name
// takes from n, the legality of (parameter, n), and the graph over n
// bins. rlsim's -topology flag, rlsd's "topology" field, the snapshot
// header's topology code and Session.TopologyName all read it.
var topologyFamilies = [...]struct {
	name  string
	fromN func(n int) int
	check func(t Topology, n int) error
	graph func(t Topology, n int) (graphs.Graph, error)
}{
	completeFamily: {name: "complete"},
	ringFamily: {
		name:  "ring",
		graph: func(_ Topology, n int) (graphs.Graph, error) { return graphs.Ring{Vertices: n}, nil },
	},
	torusFamily: {
		name:  "torus",
		fromN: ceilSqrt,
		check: func(t Topology, n int) error {
			if t.arg < 1 {
				return fmt.Errorf("rls: torus side %d, want at least 1", t.arg)
			}
			if t.arg > n/t.arg || t.arg*t.arg != n {
				return fmt.Errorf("rls: torus side %d does not match n=%d", t.arg, n)
			}
			return nil
		},
		graph: func(t Topology, _ int) (graphs.Graph, error) { return graphs.Torus2D{Side: t.arg}, nil },
	},
	hypercubeFamily: {
		name:  "hypercube",
		fromN: func(n int) int { return bits.Len(uint(n - 1)) },
		check: func(t Topology, n int) error {
			if t.arg < 0 {
				return fmt.Errorf("rls: hypercube dim %d, want at least 0", t.arg)
			}
			if t.arg == 0 {
				return fmt.Errorf("rls: hypercube dim 0 leaves its one bin no neighbor to sample")
			}
			if 1<<t.arg != n {
				return fmt.Errorf("rls: hypercube dim %d does not match n=%d", t.arg, n)
			}
			return nil
		},
		graph: func(t Topology, _ int) (graphs.Graph, error) { return graphs.Hypercube{Dim: t.arg}, nil },
	},
	expanderFamily: {
		name: "expander",
		check: func(_ Topology, n int) error {
			if side := ceilSqrt(n); n/side != side || n%side != 0 {
				return fmt.Errorf("rls: the expander needs a square bin count, n=%d is not", n)
			}
			return nil
		},
		graph: func(_ Topology, n int) (graphs.Graph, error) { return graphs.Expander{Side: ceilSqrt(n)}, nil },
	},
	randomRegularFamily: {
		name: "random-regular",
		check: func(t Topology, n int) error {
			switch d := t.arg; {
			case d < 1:
				return fmt.Errorf("rls: random-regular degree %d, want at least 1", d)
			case d >= n:
				return fmt.Errorf("rls: random-regular degree %d does not fit n=%d", d, n)
			case d > maxRandomRegularSlots/n:
				return fmt.Errorf("rls: random-regular degree %d on n=%d needs more than %d neighbor slots", d, n, maxRandomRegularSlots)
			case n*d%2 != 0:
				return fmt.Errorf("rls: random-regular degree %d needs an even n·d, n=%d", d, n)
			}
			return nil
		},
		graph: func(t Topology, n int) (graphs.Graph, error) {
			return graphs.NewRandomRegularSeed(n, t.arg, t.seed)
		},
	},
}

// maxRandomRegularSlots caps a random-regular topology's n·d neighbor
// slots: its graph holds two int32 arrays of n·d entries, built by an
// O(n·d) shuffle, so a degree near n would size them by n² (a snapshot
// header naming n = 2¹⁶ asked for 2³² slots each). The cap is rlsd's
// default one, 16 slots per bin over its 2²⁰-bin session limit.
const maxRandomRegularSlots = 1 << 24

// ceilSqrt returns the least side ≥ 1 with side² ≥ n. It compares by
// division, so no square overflows even for n near MaxInt.
func ceilSqrt(n int) int {
	if n <= 1 {
		return 1
	}
	r := int(math.Sqrt(float64(n))) // within one of ⌊√n⌋, and ≥ 1
	for r > n/r {
		r--
	}
	for r+1 <= n/(r+1) {
		r++
	}
	if n/r != r || n%r != 0 { // r = ⌊√n⌋ and r² < n
		r++
	}
	return r
}

// NamedTopology maps a topology name onto a Topology over n bins:
// "complete", "ring", "expander", "torus" (side √n), "hypercube"
// (dimension log₂ n), or "random-<d>-regular" (its pairing built from
// seed). A name whose parameter does not fit n still parses; Validate
// rejects it.
func NamedTopology(name string, n int, seed uint64) (Topology, error) {
	for f, fam := range topologyFamilies {
		if name == fam.name && f != int(randomRegularFamily) {
			t := Topology{family: topologyFamily(f)}
			if fam.fromN != nil {
				t.arg = fam.fromN(n)
			}
			return t, nil
		}
	}
	var d int
	if _, err := fmt.Sscanf(name, "random-%d-regular", &d); err == nil && RandomRegularTopology(d, seed).Name() == name {
		return RandomRegularTopology(d, seed), nil
	}
	return Topology{}, fmt.Errorf("rls: unknown topology %q (want complete|ring|torus|hypercube|expander|random-<d>-regular)", name)
}

// Name returns the topology's name, the inverse of NamedTopology:
// "complete", "ring", "torus", "hypercube", "expander", or
// "random-<d>-regular".
func (t Topology) Name() string {
	if t.family == randomRegularFamily {
		return fmt.Sprintf("random-%d-regular", t.arg)
	}
	return topologyFamilies[t.family].name
}

// active reports whether the topology restricts sampling at all (i.e. is
// not the complete topology).
func (t Topology) active() bool { return t.family != completeFamily }

// check validates the topology's parameter against n bins.
func (t Topology) check(n int) error {
	if c := topologyFamilies[t.family].check; c != nil {
		return c(t, n)
	}
	return nil
}

// graph builds the topology over n bins; t must have passed check(n).
func (t Topology) graph(n int) (graphs.Graph, error) {
	return topologyFamilies[t.family].graph(t, n)
}
