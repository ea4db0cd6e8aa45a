package sim

import (
	"fmt"

	"repro/internal/fenwick"
	"repro/internal/loadvec"
	"repro/internal/rng"
)

// Topology is the neighborhood view the graph jump engine needs: bins are
// vertices and a ball in bin i samples its destination uniformly among
// i's neighbor slots. It is the structural subset of graphs.Graph that
// sim consumes, declared locally so the engine package does not depend on
// the topology catalogue.
type Topology interface {
	// N returns the number of vertices (bins).
	N() int
	// Degree returns the number of neighbor slots of vertex i.
	Degree(i int) int
	// Neighbor returns the k-th neighbor of vertex i, 0 ≤ k < Degree(i).
	Neighbor(i, k int) int
}

// graphIndex is the per-source admissible structure behind the graph
// jump engine. For a Δ-regular topology it maintains, per bin i,
//
//	adm[i] = #{slots k : load(Neighbor(i,k)) ≤ load(i) − 1}
//
// and a bin-indexed Fenwick tree over the weights w_i = load(i)·adm[i],
// whose total is the graph move weight
//
//	W_G = Σ_i load(i)·adm[i].
//
// One activation picks a uniform ball (bin ∝ load) and a uniform slot,
// so the per-activation move probability is exactly W_G/(m·Δ) and the
// conditional law of the move is (src, slot) ∝ load(src)·[admissible] —
// the embedded jump chain of GraphRLS, sampled with no rejection.
//
// Counting neighbor *slots* rather than distinct neighbors makes the law
// match GraphRLS exactly even on multigraphs (a parallel edge doubles a
// destination's probability in both) and makes self-loops harmless (a
// self-slot is never admissible).
//
// A load change at bin b flips the admissibility of b's own slots and of
// the slots j→b pointing back at b. The catalogue's slot lists are
// symmetric as multisets (b lists j as often as j lists b), so walking
// b's Δ slots enumerates every slot j→b; when load(b) steps from old to
// new, slot j→b flips only if load(j) sits at the one turning level
// max(old, new), and adm[j] moves by ±1 without a rescan of j. Only the
// changed bins themselves are recounted, in the same pass. An update
// therefore costs O(Δ) comparisons plus one Fenwick update per flipped
// neighbor and per changed bin — O(Δ + flips·log n). The previous loads
// live in a mirror (derived state, rebuilt on restore, never
// serialized), which the slot scans also read for locality.
type graphIndex struct {
	g     Topology
	deg   int           // uniform degree Δ
	loads []int32       // mirror of cfg loads as of the last update
	adm   []int32       // admissible slot count per bin
	wval  []int64       // current w_i = load(i)·adm[i]
	wt    *fenwick.Tree // Fenwick over wval
	total int64         // W_G
}

// newGraphIndex builds the structure for the configuration's current
// state. It panics unless the topology covers exactly the configuration's
// bins and is regular with degree ≥ 1 — regularity is what makes the
// per-activation move probability a single ratio W_G/(m·Δ).
func newGraphIndex(cfg *loadvec.Config, g Topology) *graphIndex {
	n := cfg.N()
	gx := &graphIndex{
		g:     g,
		deg:   regularTopologyDegree(cfg, g),
		loads: make([]int32, n),
		adm:   make([]int32, n),
		wval:  make([]int64, n),
		wt:    fenwick.New(n),
	}
	for i := range gx.loads {
		gx.loads[i] = int32(cfg.Load(i))
	}
	for i := range gx.adm {
		gx.setAdm(i, gx.countAdm(i))
	}
	return gx
}

// countAdm rescans bin i's slots against the mirrored loads.
func (gx *graphIndex) countAdm(i int) int32 {
	li := gx.loads[i]
	a := int32(0)
	for k := 0; k < gx.deg; k++ {
		if gx.loads[gx.g.Neighbor(i, k)] < li {
			a++
		}
	}
	return a
}

// setAdm installs bin i's admissible count and applies the weight
// difference as a Fenwick point update.
func (gx *graphIndex) setAdm(i int, a int32) {
	gx.adm[i] = a
	w := int64(gx.loads[i]) * int64(a)
	if d := w - gx.wval[i]; d != 0 {
		gx.wt.Add(i, d)
		gx.wval[i] = w
		gx.total += d
	}
}

// update refreshes the structure after the loads of bins a and b changed
// (a move's endpoints, or one churn bin with b = -1). Both mirror entries
// are refreshed first, so each changed bin's recount sees the other's
// final load; a neighbor that is itself a changed bin is left to its own
// recount, so adjacent endpoints are counted once.
func (gx *graphIndex) update(cfg *loadvec.Config, a, b int) {
	oldA := gx.loads[a]
	gx.loads[a] = int32(cfg.Load(a))
	oldB := int32(0)
	if b >= 0 {
		oldB = gx.loads[b]
		gx.loads[b] = int32(cfg.Load(b))
	}
	gx.refresh(a, b, oldA)
	if b >= 0 {
		gx.refresh(b, a, oldB)
	}
}

// refresh applies bin c's load change old → loads[c] to the slots
// pointing back at c, then recounts c itself; other (the second changed
// bin, or -1) is skipped as a neighbor because it recounts itself.
func (gx *graphIndex) refresh(c, other int, old int32) {
	lc := gx.loads[c]
	a := int32(0)
	for k := 0; k < gx.deg; k++ {
		j := gx.g.Neighbor(c, k)
		lj := gx.loads[j]
		if lj < lc {
			a++
		}
		if j == c || j == other {
			continue
		}
		// Slot j→c is admissible iff load(c) < load(j): it turns on when
		// c drops from lj to below, off when c climbs to lj.
		var d int32
		if lc < lj {
			d++
		}
		if old < lj {
			d--
		}
		if d != 0 {
			gx.setAdm(j, gx.adm[j]+d)
		}
	}
	gx.setAdm(c, a)
}

// validate cross-checks the incrementally maintained state — the loads
// mirror, adm, wval, the Fenwick leaves and W_G — against a fresh build
// over the configuration's live loads.
func (gx *graphIndex) validate(cfg *loadvec.Config) error {
	fresh := newGraphIndex(cfg, gx.g)
	leaves := gx.wt.Leaves()
	for i := range fresh.adm {
		switch {
		case gx.loads[i] != fresh.loads[i]:
			return fmt.Errorf("sim: graph index load mirror[%d] = %d, config has %d", i, gx.loads[i], fresh.loads[i])
		case gx.adm[i] != fresh.adm[i]:
			return fmt.Errorf("sim: graph index adm[%d] = %d, fresh %d", i, gx.adm[i], fresh.adm[i])
		case gx.wval[i] != fresh.wval[i]:
			return fmt.Errorf("sim: graph index w[%d] = %d, fresh %d", i, gx.wval[i], fresh.wval[i])
		case leaves[i] != fresh.wval[i]:
			return fmt.Errorf("sim: graph index Fenwick leaf %d = %d, fresh %d", i, leaves[i], fresh.wval[i])
		}
	}
	if gx.total != fresh.total {
		return fmt.Errorf("sim: graph index W_G = %d, fresh %d", gx.total, fresh.total)
	}
	return nil
}

// sample draws one jump-chain move: src with probability ∝
// load(src)·adm[src], then a uniform admissible slot of src. The caller
// guarantees total > 0.
func (gx *graphIndex) sample(r *rng.RNG) (src, dst int) {
	i, rem := gx.wt.Find(r.Int63n(gx.total))
	// rem is uniform over [0, load(i)·adm[i]); folding out the ball
	// multiplicity leaves a uniform admissible-slot index.
	j := int(rem % int64(gx.adm[i]))
	li := gx.loads[i]
	for k := 0; k < gx.deg; k++ {
		nb := gx.g.Neighbor(i, k)
		if gx.loads[nb] < li {
			if j == 0 {
				return i, nb
			}
			j--
		}
	}
	panic("sim: graph index admissible count out of sync")
}

// regularTopologyDegree validates that g covers exactly the
// configuration's bins and is regular with degree ≥ 1, panicking
// otherwise — regularity is what makes the per-activation move
// probability a single ratio W_G/(m·Δ).
func regularTopologyDegree(cfg *loadvec.Config, g Topology) int {
	n := cfg.N()
	if g.N() != n {
		panic("sim: graph jump engine needs a topology over exactly the configuration's bins")
	}
	deg := g.Degree(0)
	if deg < 1 {
		panic("sim: graph jump engine needs a regular topology with degree >= 1")
	}
	for i := 1; i < n; i++ {
		if g.Degree(i) != deg {
			panic("sim: graph jump engine needs a regular topology")
		}
	}
	return deg
}

// NewGraphJumpEngine builds a rejection-free engine for plain RLS
// restricted to a regular graph topology (the §7 extension simulated by
// graphs.GraphRLS): a ball in bin i samples a uniform neighbor slot and
// moves iff the neighbor's load is lower. Like NewJumpEngine it simulates
// only the embedded jump chain — Geometric(W_G/(m·Δ)) null blocks, Erlang
// time gaps — with the exact move weight W_G = Σ_i load(i)·adm[i]
// maintained by per-source admissible-slot counts (graphIndex:
// O(Δ + flips·log n) per move, every event a real move). SetHorizon's
// thinned-Poisson clamp conditions on the same weight, so time-targeted
// runs stay exact.
//
// The balancing-time law is the direct engine's (experiment A8 KS-tests
// it). The topology must be regular and its slot lists symmetric as
// multisets, as every catalogue topology's are; multigraph slots
// (parallel edges, self-loops) are handled exactly.
func NewGraphJumpEngine(initial loadvec.Vector, g Topology, r *rng.RNG) *Engine {
	if r == nil {
		panic("sim: NewGraphJumpEngine with nil RNG")
	}
	if g == nil {
		panic("sim: NewGraphJumpEngine with nil topology")
	}
	cfg := loadvec.NewConfig(initial)
	// The level index serves RandomBin (session churn) and stays the
	// uniform-ball sampler; the graph index owns the move weight.
	cfg.EnableLevelIndex()
	return &Engine{cfg: cfg, r: r, jump: true, gidx: newGraphIndex(cfg, g)}
}
