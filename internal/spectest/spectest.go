// Package spectest is the cross-product of rls.Spec shapes that every
// construction surface's agreement test walks: the Runner, Spec.NewSession
// and snapshot resume (package rls), rlsd's create endpoint
// (internal/service), and rlsim's flags (cmd/rlsim). Each surface must
// build exactly the cases Validate accepts and reject the rest with
// Validate's message.
package spectest

import (
	"fmt"

	rls "repro"
)

// Seed seeds every case's random-regular topology; name-based codecs
// (rlsd, rlsim) pass it as the run seed, which builds the same graph.
const Seed = 7

// Case is one Spec over N bins.
type Case struct {
	Name string
	N    int
	Spec rls.Spec
}

// Cases returns mode (with an unknown one) × strict × every topology
// family — valid, with invalid parameters, and against a mismatched n —
// × speeds (none, unit, wrong length, a zero speed) × the signs
// of the shard count and the shard epoch, over n = 16, n = 9 and n = 1
// (where the torus has side 1 and the hypercube dimension 0). Two more
// cases, direct and jump, name a random-regular degree whose n·d
// neighbor slots exceed Validate's ceiling (n = 8192, d = 8190), which
// every surface must reject before it builds the graph.
func Cases() []Case {
	var out []Case
	for _, n := range []int{16, 9, 1} {
		for _, mode := range []rls.EngineMode{rls.DirectEngine, rls.JumpEngine, rls.ShardedEngine, rls.EngineMode(7)} {
			for _, strict := range []bool{false, true} {
				for _, topo := range []rls.Topology{
					rls.CompleteTopology(), rls.RingTopology(), rls.ExpanderTopology(),
					rls.TorusTopology(4), rls.TorusTopology(3), rls.TorusTopology(1), rls.TorusTopology(0),
					rls.HypercubeTopology(4), rls.HypercubeTopology(0), rls.HypercubeTopology(-1),
					rls.RandomRegularTopology(4, Seed), rls.RandomRegularTopology(3, Seed),
					rls.RandomRegularTopology(0, Seed), rls.RandomRegularTopology(16, Seed),
				} {
					for si, speeds := range [][]float64{nil, ones(n), ones(n + 1), append(ones(n-1), 0)} {
						for _, sh := range []struct {
							shards int
							epoch  float64
						}{{0, 0}, {2, 0}, {-1, 0}, {0, 0.5}, {0, -1}} {
							spec := rls.Spec{
								Mode: mode, Strict: strict, Topology: topo, Speeds: speeds,
								Shards: sh.shards, ShardEpoch: sh.epoch,
							}
							out = append(out, Case{
								Name: fmt.Sprintf("n=%d mode=%d strict=%t %s%v speeds#%d shards=%d epoch=%g",
									n, mode, strict, topo.Name(), topo, si, sh.shards, sh.epoch),
								N:    n,
								Spec: spec,
							})
						}
					}
				}
			}
		}
	}
	const n = 1 << 13
	topo := rls.RandomRegularTopology(n-2, Seed)
	for _, mode := range []rls.EngineMode{rls.DirectEngine, rls.JumpEngine} {
		out = append(out, Case{
			Name: fmt.Sprintf("n=%d mode=%d %s over the slot ceiling", n, mode, topo.Name()),
			N:    n,
			Spec: rls.Spec{Mode: mode, Topology: topo},
		})
	}
	return out
}

func ones(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// SessionWant is the error a session surface must answer c with:
// rls.ErrSessionSpec for the sharded engine or Speeds, else
// Validate's.
func (c Case) SessionWant() error {
	if c.Spec.Mode == rls.ShardedEngine || c.Spec.Speeds != nil {
		return rls.ErrSessionSpec
	}
	return c.Spec.Validate(c.N)
}

// TopologyName returns the name a name-based codec spells c's topology
// with, and whether the name maps back onto exactly that topology over
// c.N bins with Seed (a torus or hypercube parameter other than the one n
// fixes has no name).
func (c Case) TopologyName() (string, bool) {
	name := c.Spec.Topology.Name()
	t, err := rls.NamedTopology(name, c.N, Seed)
	return name, err == nil && t == c.Spec.Topology
}

// EngineName returns the wire and flag name of c's engine mode, and
// whether it has one.
func (c Case) EngineName() (string, bool) {
	switch c.Spec.Mode {
	case rls.DirectEngine, rls.JumpEngine, rls.ShardedEngine:
		return c.Spec.Mode.String(), true
	}
	return "", false
}

// Want renders an expected error as the message a surface reports ("" for
// success).
func Want(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
