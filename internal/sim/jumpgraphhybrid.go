package sim

import (
	"repro/internal/fenwick"
	"repro/internal/loadvec"
	"repro/internal/rng"
)

// This file is the second half of the graph jump engine: a
// rejection-within-blocks sampler, selected only by an explicit
// GraphSamplerRejection, as an alternative to the exact admissible index
// (jumpgraph.go) that every other mode uses. Both implementations sit
// behind graphSampler, and jump.go's block loop is written against that
// interface alone.

// graphSampler is the move-weight structure behind the graph jump engine.
// Two implementations exist: graphIndex keeps the exact move weight W_G
// (every eventful activation is a move), graphHybrid keeps an upper bound
// Ŵ_G ≥ W_G (an eventful activation may still be null). jump.go only
// needs the weight for block sizing, the degree for the per-activation
// denominator, and the two state-change entry points.
type graphSampler interface {
	// topology returns the graph the sampler was built over (shape, used
	// by persist to rebuild after a restore).
	topology() Topology
	// weight returns the current block-ending weight: W_G exactly, or the
	// bound Ŵ_G. Zero means no activation needs to be materialized.
	weight() int64
	// degree returns the uniform degree Δ.
	degree() int
	// event resolves one eventful activation, drawn with probability
	// weight()/(m·Δ) per activation: the (src, dst) move it produces, or
	// ok=false when a rejection sampler's flagged activation turned out
	// inadmissible (a real null — the caller has already advanced time
	// and the activation counter; no move happens). The caller guarantees
	// weight() > 0 and, on ok=true, must apply the move and then call
	// update(cfg, src, dst).
	event(cfg *loadvec.Config, r *rng.RNG) (src, dst int, ok bool)
	// update refreshes the sampler after the loads of bins a and b
	// changed (a move's endpoints, or one churn bin with b = -1).
	update(cfg *loadvec.Config, a, b int)
}

// GraphSamplerMode selects which graphSampler a graph jump engine uses.
// The choice changes the constants, never the law: A8 KS-gates both
// against the direct engine, and the differential harness cross-checks
// them against each other on every bounded-degree topology.
type GraphSamplerMode int

const (
	// GraphSamplerAuto picks the exact index at every degree: its O(Δ)
	// incremental update makes no more Fenwick updates per move than the
	// hybrid and it never rejects. A snapshot taken under auto by an
	// engine that ran the hybrid (older builds picked it above a degree
	// threshold) resumes onto the hybrid it recorded.
	GraphSamplerAuto GraphSamplerMode = iota
	// GraphSamplerExact forces the per-source admissible index.
	GraphSamplerExact
	// GraphSamplerRejection forces rejection-within-blocks.
	GraphSamplerRejection
)

// String implements fmt.Stringer ("auto", "exact", "rejection").
func (m GraphSamplerMode) String() string {
	switch m {
	case GraphSamplerExact:
		return "exact"
	case GraphSamplerRejection:
		return "rejection"
	default:
		return "auto"
	}
}

// ResolveGraphSampler collapses a mode to the concrete sampler a new
// engine builds: auto resolves to exact. Exposed so tests and tooling
// can pin what auto selects without constructing an engine.
func ResolveGraphSampler(mode GraphSamplerMode) GraphSamplerMode {
	if mode == GraphSamplerRejection {
		return GraphSamplerRejection
	}
	return GraphSamplerExact
}

// graphHybrid is the rejection-within-blocks sampler. Instead of the
// exact admissible count adm[i] it maintains a lazy per-source upper
// bound admUB[i] with the invariant
//
//	adm(i) ≤ admUB[i] ≤ Δ,
//
// and a bin-indexed Fenwick tree over ŵ_i = load(i)·admUB[i], whose
// total Ŵ_G ≥ W_G upper-bounds the move weight. Blocks are sized
// Geometric(p̂) with p̂ = Ŵ_G/(m·Δ): by thinning, flag each activation
// (uniform ball in bin i, uniform slot t of Δ) with probability
// admUB[i]/Δ — the flagged stream has exactly rate p̂ per activation and
// the true move stream is a subset of it. An eventful activation then
// draws a source ∝ load·admUB and a uniform flag-slot index
// u ∈ [0, admUB); one O(Δ) scan of the source's slots computes the exact
// adm and accepts iff u < adm, in which case u indexes a uniform
// admissible slot — the accepted law is (src, slot) ∝ load·[admissible],
// identical to graphIndex, and the acceptance odds are adm/admUB, i.e.
// expected Ŵ_G/W_G flagged events per move. A rejection is a real null
// activation, and it pays for itself: the scan's exact count tightens
// admUB[src] ← adm(src), so sources that keep rejecting stop being
// flagged — the lazy refresh that keeps the end-game (where W_G → 0 but
// stale bounds linger) from degenerating.
//
// Soundness of the bound under load changes, maintained by update:
//
//   - bin b's own load changed: recompute admUB[b] = adm(b) exactly (one
//     O(Δ) scan — both growth and shrinkage of adm(b) are possible);
//   - load(b) decreased: each neighbor j gains at most one admissible
//     slot per (j→b) edge, so bump admUB[j] by the incident multiplicity
//     (capped at Δ) — no scan of j needed;
//   - load(b) increased: neighbors only lose admissible slots; their
//     bounds stay valid untouched.
//
// A move or churn event therefore costs O(Δ·log n): the vacated bin's
// Δ neighbors each take a Fenwick point update. The exact index pays
// O(Δ + flips·log n) for the same event, updating only the neighbors
// whose admissibility actually flipped, and never rejects — so it is the
// default at every degree and this sampler is reached only by an
// explicit GraphSamplerRejection. Detecting the direction needs the
// previous loads, so the sampler mirrors them (derived state: rebuilt,
// never serialized; admUB is history-dependent and ships verbatim).
type graphHybrid struct {
	g     Topology
	deg   int
	loads []int32       // mirror of cfg loads, for change-direction detection
	admUB []int32       // lazy admissible upper bound per bin
	wval  []int64       // current ŵ_i = load(i)·admUB[i]
	wt    *fenwick.Tree // Fenwick over wval
	total int64         // Ŵ_G
}

// newGraphHybrid builds the sampler with exact initial bounds
// (admUB = adm), the tightest start; bounds loosen only as updates bump
// neighbors and tighten again on rejection.
func newGraphHybrid(cfg *loadvec.Config, g Topology) *graphHybrid {
	n := cfg.N()
	gh := &graphHybrid{
		g:     g,
		deg:   regularTopologyDegree(cfg, g),
		loads: make([]int32, n),
		admUB: make([]int32, n),
		wval:  make([]int64, n),
		wt:    fenwick.New(n),
	}
	for i := 0; i < n; i++ {
		gh.loads[i] = int32(cfg.Load(i))
		gh.setUB(i, gh.exactAdm(cfg, i))
	}
	return gh
}

// exactAdm scans bin i's slots against the live loads.
func (gh *graphHybrid) exactAdm(cfg *loadvec.Config, i int) int32 {
	li := cfg.Load(i)
	a := int32(0)
	for k := 0; k < gh.deg; k++ {
		if cfg.Load(gh.g.Neighbor(i, k)) <= li-1 {
			a++
		}
	}
	return a
}

// setUB installs a new upper bound for bin i and applies the ŵ_i weight
// difference as a Fenwick point update, using the mirrored load.
func (gh *graphHybrid) setUB(i int, ub int32) {
	if ub > int32(gh.deg) {
		ub = int32(gh.deg)
	}
	gh.admUB[i] = ub
	w := int64(gh.loads[i]) * int64(ub)
	if d := w - gh.wval[i]; d != 0 {
		gh.wt.Add(i, d)
		gh.wval[i] = w
		gh.total += d
	}
}

func (gh *graphHybrid) topology() Topology { return gh.g }
func (gh *graphHybrid) weight() int64      { return gh.total }
func (gh *graphHybrid) degree() int        { return gh.deg }

// event resolves one flagged activation: source ∝ load·admUB, flag-slot
// index u uniform over [0, admUB), accepted iff u < adm with the u-th
// admissible slot as destination. The caller guarantees total > 0.
func (gh *graphHybrid) event(cfg *loadvec.Config, r *rng.RNG) (int, int, bool) {
	i, rem := gh.wt.Find(r.Int63n(gh.total))
	// rem is uniform over [0, load(i)·admUB[i]); folding out the ball
	// multiplicity leaves a uniform flag-slot index.
	u := int32(rem % int64(gh.admUB[i]))
	li := cfg.Load(i)
	a := int32(0)
	dst := -1
	for k := 0; k < gh.deg; k++ {
		nb := gh.g.Neighbor(i, k)
		if cfg.Load(nb) <= li-1 {
			if a == u {
				dst = nb
			}
			a++
		}
	}
	if dst >= 0 {
		return i, dst, true
	}
	// Rejected (u ≥ adm): a real null activation. The scan's exact count
	// is free — tighten the bound so this source stops over-flagging.
	gh.setUB(i, a)
	return i, -1, false
}

// update refreshes the sampler after the loads of bins a and b changed
// (b = -1 for one churn bin); see the type comment for the soundness
// argument.
func (gh *graphHybrid) update(cfg *loadvec.Config, a, b int) {
	gh.refresh(cfg, a)
	if b >= 0 {
		gh.refresh(cfg, b)
	}
}

// refresh applies one changed bin: an exact recount of its own bound
// and, if its load fell, a +1 bump for each neighbor slot pointing at it.
func (gh *graphHybrid) refresh(cfg *loadvec.Config, b int) {
	nl := int32(cfg.Load(b))
	decreased := nl < gh.loads[b]
	gh.loads[b] = nl
	gh.setUB(b, gh.exactAdm(cfg, b))
	if decreased {
		for k := 0; k < gh.deg; k++ {
			nb := gh.g.Neighbor(b, k)
			if nb != b && gh.admUB[nb] < int32(gh.deg) {
				gh.setUB(nb, gh.admUB[nb]+1)
			}
		}
	}
}

// regularTopologyDegree validates that g covers exactly the
// configuration's bins and is regular with degree ≥ 1, panicking
// otherwise — regularity is what makes the per-activation event
// probability a single ratio weight/(m·Δ).
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

// NewGraphJumpEngineMode builds a graph jump engine with an explicit
// sampler mode; NewGraphJumpEngine is this with GraphSamplerAuto. The
// resolved choice (ResolveGraphSampler) decides between the exact
// admissible index and the rejection-within-blocks sampler; either way
// the engine simulates the same embedded jump chain, so the balancing
// law matches the direct engine's — only the cost model differs. The
// engine remembers the requested mode: under auto, a restored snapshot's
// graph tag decides which sampler is rebuilt (DecodeState).
func NewGraphJumpEngineMode(initial loadvec.Vector, g Topology, mode GraphSamplerMode, r *rng.RNG) *Engine {
	if r == nil {
		panic("sim: NewGraphJumpEngine with nil RNG")
	}
	if g == nil {
		panic("sim: NewGraphJumpEngine with nil topology")
	}
	cfg := loadvec.NewConfig(initial)
	// The level index serves RandomBin (session churn) and stays the
	// uniform-ball sampler; the graph sampler owns the move weight.
	cfg.EnableLevelIndex()
	e := &Engine{cfg: cfg, r: r, jump: true, gmode: mode}
	if ResolveGraphSampler(mode) == GraphSamplerRejection {
		e.gidx = newGraphHybrid(cfg, g)
	} else {
		e.gidx = newGraphIndex(cfg, g)
	}
	return e
}
