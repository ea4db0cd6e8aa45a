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
// and a bin-indexed prefix-sum tree (internal/fenwick, fan-out B = 16)
// over the weights w_i = load(i)·adm[i]. The tree's leaves are the one
// copy of w, read in O(1), and its total is the graph move weight
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
// therefore costs O(Δ) reads of a flat slot table plus one tree update
// (one write per tree level) per flipped neighbor and per changed bin —
// O(Δ + flips·log_B n), three writes per flip at n = 4096. The slot
// table nbr[i·Δ+k] = Neighbor(i, k) is built once, so the hot path never
// calls through the Topology interface; it and the previous loads are
// derived state (rebuilt on restore, never serialized).
//
// The graph index is the engine's only move-weight structure. The
// configuration carries no level index until the first RandomBin builds
// the plain one to draw a departing ball.
type graphIndex struct {
	g     Topology      // kept so restore can rebuild nbr
	deg   int           // uniform degree Δ
	nbr   []int32       // flat slot table: nbr[i·Δ+k] = Neighbor(i, k)
	loads []int32       // mirror of cfg loads as of the last update
	adm   []int32       // admissible slot count per bin
	wt    *fenwick.Tree // leaves w_i = load(i)·adm[i], total W_G
}

// newGraphIndex builds the structure for the configuration's current
// state, filling the slot table in the same pass as the admissible
// counts. It panics unless the topology covers exactly the
// configuration's bins and is regular with degree ≥ 1 — regularity is
// what makes the per-activation move probability a single ratio
// W_G/(m·Δ).
func newGraphIndex(cfg *loadvec.Config, g Topology) *graphIndex {
	n := cfg.N()
	deg := regularTopologyDegree(cfg, g)
	gx := &graphIndex{
		g:     g,
		deg:   deg,
		nbr:   make([]int32, n*deg),
		loads: make([]int32, n),
		adm:   make([]int32, n),
		wt:    fenwick.New(n),
	}
	for i := range gx.loads {
		gx.loads[i] = int32(cfg.Load(i))
	}
	for i := range gx.adm {
		li := gx.loads[i]
		row := gx.slots(i)
		a := int32(0)
		for k := range row {
			j := g.Neighbor(i, k)
			row[k] = int32(j)
			if gx.loads[j] < li {
				a++
			}
		}
		gx.setAdm(i, a)
	}
	return gx
}

// slots returns bin i's row of the slot table.
func (gx *graphIndex) slots(i int) []int32 {
	return gx.nbr[i*gx.deg : (i+1)*gx.deg]
}

// setAdm installs bin i's admissible count and applies the weight
// difference as a tree point update.
func (gx *graphIndex) setAdm(i int, a int32) {
	gx.adm[i] = a
	if d := int64(gx.loads[i])*int64(a) - gx.wt.Value(i); d != 0 {
		gx.wt.Add(i, d)
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
	for _, j32 := range gx.slots(c) {
		j := int(j32)
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

// validate cross-checks the maintained state — the slot table, the loads
// mirror, adm, the tree's leaves and W_G — against a fresh build over the
// topology and the configuration's live loads.
func (gx *graphIndex) validate(cfg *loadvec.Config) error {
	fresh := newGraphIndex(cfg, gx.g)
	if len(gx.nbr) != len(fresh.nbr) {
		return fmt.Errorf("sim: graph index slot table has %d slots, topology %d", len(gx.nbr), len(fresh.nbr))
	}
	for s, j := range fresh.nbr {
		if gx.nbr[s] != j {
			return fmt.Errorf("sim: graph index slot %d of bin %d = %d, topology has %d", s%gx.deg, s/gx.deg, gx.nbr[s], j)
		}
	}
	for i := range fresh.adm {
		switch {
		case gx.loads[i] != fresh.loads[i]:
			return fmt.Errorf("sim: graph index load mirror[%d] = %d, config has %d", i, gx.loads[i], fresh.loads[i])
		case gx.adm[i] != fresh.adm[i]:
			return fmt.Errorf("sim: graph index adm[%d] = %d, fresh %d", i, gx.adm[i], fresh.adm[i])
		case gx.wt.Value(i) != fresh.wt.Value(i):
			return fmt.Errorf("sim: graph index w[%d] = %d, fresh %d", i, gx.wt.Value(i), fresh.wt.Value(i))
		}
	}
	if got, want := gx.wt.Total(), fresh.wt.Total(); got != want {
		return fmt.Errorf("sim: graph index W_G = %d, fresh %d", got, want)
	}
	return nil
}

// sample draws one jump-chain move: src with probability ∝
// load(src)·adm[src], then a uniform admissible slot of src. The caller
// guarantees W_G > 0.
func (gx *graphIndex) sample(r *rng.RNG) (src, dst int) {
	i, rem := gx.wt.Find(r.Int63n(gx.wt.Total()))
	// rem is uniform over [0, load(i)·adm[i]); folding out the ball
	// multiplicity leaves a uniform admissible-slot index.
	j := int(rem % int64(gx.adm[i]))
	li := gx.loads[i]
	for _, nb := range gx.slots(i) {
		if gx.loads[nb] < li {
			if j == 0 {
				return i, int(nb)
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
// maintained by per-source admissible-slot counts (graphIndex: O(Δ) reads
// of a flat slot table plus, per admissibility flip, an O(1) leaf read
// and one write per level of a 16-ary prefix-sum tree —
// O(Δ + flips·log_16 n) per move, every event a real move).
// SetHorizon's thinned-Poisson clamp conditions on the same weight, so
// time-targeted runs stay exact. The configuration starts with no level
// index: a run never reads one. The first RandomBin (a session's random
// departure) builds the plain index over the loads of that moment, and
// moves keep it in step from then on.
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
	return &Engine{cfg: cfg, r: r, jump: true, gidx: newGraphIndex(cfg, g)}
}
