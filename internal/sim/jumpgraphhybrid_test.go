package sim

import (
	"math"
	"testing"

	"repro/internal/graphs"
	"repro/internal/loadvec"
	"repro/internal/rng"
)

// TestResolveGraphSampler pins the auto-mode choice: exact at every
// (Δ, n) — the incremental exact index makes no more Fenwick updates per
// move than the hybrid and never rejects — and explicit overrides always
// honored. The engine constructor follows the resolution on bounded-
// degree and dense topologies alike.
func TestResolveGraphSampler(t *testing.T) {
	if got := ResolveGraphSampler(GraphSamplerAuto); got != GraphSamplerExact {
		t.Errorf("auto resolved to %v, want exact", got)
	}
	if got := ResolveGraphSampler(GraphSamplerExact); got != GraphSamplerExact {
		t.Errorf("explicit exact resolved to %v", got)
	}
	if got := ResolveGraphSampler(GraphSamplerRejection); got != GraphSamplerRejection {
		t.Errorf("explicit rejection resolved to %v", got)
	}
	topos := []Topology{
		graphs.Ring{Vertices: 16},
		graphs.Torus2D{Side: 8},
		graphs.Expander{Side: 16},
		graphs.Hypercube{Dim: 10},
	}
	for _, c := range []struct{ n, d int }{{16, 9}, {64, 32}, {128, 64}, {1024, 16}} {
		rr, err := graphs.NewRandomRegularSeed(c.n, c.d, 3)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, rr)
	}
	for _, g := range topos {
		v := make(loadvec.Vector, g.N())
		v[0] = g.N()
		if _, ok := NewGraphJumpEngine(v, g, rng.New(1)).gidx.(*graphIndex); !ok {
			t.Errorf("auto engine on %T (Δ=%d, n=%d) did not build the exact index", g, g.Degree(0), g.N())
		}
		e := NewGraphJumpEngineMode(v, g, GraphSamplerRejection, rng.New(1))
		if _, ok := e.gidx.(*graphHybrid); !ok {
			t.Errorf("rejection-mode engine on %T did not build the hybrid sampler", g)
		}
	}
}

// checkHybridInvariants validates the sampler's full state against the
// live loads: mirrored loads, the soundness invariant adm ≤ admUB ≤ Δ,
// and the Fenwick weights ŵ_i = load·admUB summing to the total.
func checkHybridInvariants(t *testing.T, gh *graphHybrid, cfg *loadvec.Config, step int) {
	t.Helper()
	var total int64
	for i := 0; i < cfg.N(); i++ {
		if int(gh.loads[i]) != cfg.Load(i) {
			t.Fatalf("step %d: load mirror[%d] = %d, config has %d", step, i, gh.loads[i], cfg.Load(i))
		}
		adm := gh.exactAdm(cfg, i)
		if gh.admUB[i] < adm || gh.admUB[i] > int32(gh.deg) {
			t.Fatalf("step %d: admUB[%d] = %d outside [adm=%d, Δ=%d]", step, i, gh.admUB[i], adm, gh.deg)
		}
		if want := int64(cfg.Load(i)) * int64(gh.admUB[i]); gh.wval[i] != want {
			t.Fatalf("step %d: ŵ[%d] = %d, want %d", step, i, gh.wval[i], want)
		}
		total += gh.wval[i]
	}
	if gh.total != total {
		t.Fatalf("step %d: Ŵ_G = %d, want %d", step, gh.total, total)
	}
}

// TestGraphHybridSoundBound drives the hybrid through the same
// move/churn/event mix the exact-index test uses and validates the
// soundness invariant throughout: the lazy bound never dips below the
// exact admissible count (which would skew the law), never exceeds the
// degree, and the Fenwick total tracks Σ load·admUB exactly. Events are
// included because rejections are the one place bounds tighten.
func TestGraphHybridSoundBound(t *testing.T) {
	r := rng.New(909)
	topos := []Topology{
		graphs.Ring{Vertices: 16},
		graphs.Expander{Side: 4},
		graphs.Hypercube{Dim: 4},
	}
	rr, err := graphs.NewRandomRegularSeed(16, 6, 44)
	if err != nil {
		t.Fatal(err)
	}
	topos = append(topos, rr)
	for _, g := range topos {
		n := g.N()
		v := make(loadvec.Vector, n)
		for i := range v {
			v[i] = r.Intn(5)
		}
		if v.Balls() == 0 {
			v[0] = 1
		}
		cfg := loadvec.NewConfig(v)
		gh := newGraphHybrid(cfg, g)
		checkHybridInvariants(t, gh, cfg, -1)
		for step := 0; step < 500; step++ {
			switch r.Intn(5) {
			case 0: // sampled event: a protocol move or a bound-tightening rejection
				if gh.total > 0 {
					if src, dst, ok := gh.event(cfg, r); ok {
						cfg.Move(src, dst)
						gh.update(cfg, src, dst)
					}
				}
			case 1: // destructive move
				src, dst := r.Intn(n), r.Intn(n)
				if src != dst && cfg.Load(src) > 0 {
					cfg.Move(src, dst)
					gh.update(cfg, src, dst)
				}
			case 2:
				bin := r.Intn(n)
				cfg.AddBall(bin)
				gh.update(cfg, bin, -1)
			case 3:
				if bin := r.Intn(n); cfg.Load(bin) > 0 && cfg.M() > 1 {
					cfg.RemoveBall(bin)
					gh.update(cfg, bin, -1)
				}
			case 4: // quiet step: invariants must hold between ops too
			}
			if step%17 == 0 {
				checkHybridInvariants(t, gh, cfg, step)
			}
		}
		checkHybridInvariants(t, gh, cfg, 500)
	}
}

// TestGraphHybridEventLaw checks the accepted-event law on a fixed
// configuration: conditioned on acceptance, pair (i, j) must appear with
// probability load(i)·s_ij/W_G (s_ij = parallel-slot multiplicity) —
// identical to the exact index — and the acceptance rate must match
// W_G/Ŵ_G. The bounds are first loosened to the trivial Δ so the
// rejection path actually runs; every rejection draw is undone before
// the next trial so the bound stays put and the per-trial law is fixed.
func TestGraphHybridEventLaw(t *testing.T) {
	g := graphs.Ring{Vertices: 5}
	v := loadvec.Vector{4, 1, 2, 0, 3}
	cfg := loadvec.NewConfig(v)
	gh := newGraphHybrid(cfg, g)
	for i := 0; i < cfg.N(); i++ {
		gh.setUB(i, int32(gh.deg)) // loosen: Ŵ_G = Σ load·Δ = 2m
	}
	W := float64(scratchGraphWeight(v, g))
	What := float64(gh.total)
	if What != float64(2*v.Balls()) {
		t.Fatalf("loosened Ŵ_G = %g, want %d", What, 2*v.Balls())
	}
	r := rng.New(77)
	const trials = 300000
	counts := map[[2]int]int{}
	accepted := 0
	for trial := 0; trial < trials; trial++ {
		src, dst, ok := gh.event(cfg, r)
		if !ok {
			// A rejection tightened admUB[src]; restore the loose bound so
			// every trial draws from the same fixed law.
			gh.setUB(src, int32(gh.deg))
			continue
		}
		if cfg.Load(dst) > cfg.Load(src)-1 {
			t.Fatalf("inadmissible accepted move %d→%d", src, dst)
		}
		counts[[2]int{src, dst}]++
		accepted++
	}
	if got, want := float64(accepted)/trials, W/What; math.Abs(got-want) > 0.01 {
		t.Fatalf("acceptance rate %g, want W/Ŵ = %g", got, want)
	}
	for pair, c := range counts {
		i, j := pair[0], pair[1]
		s := 0
		for k := 0; k < g.Degree(i); k++ {
			if g.Neighbor(i, k) == j {
				s++
			}
		}
		want := float64(v[i]) * float64(s) / W
		got := float64(c) / float64(accepted)
		if math.Abs(got-want) > 0.015 {
			t.Errorf("pair %v: frequency %g, want %g", pair, got, want)
		}
	}
}

// TestGraphHybridBalancesDense runs the hybrid on a genuinely dense
// random-regular graph (Δ = 32 on n = 128, forced: auto picks the exact
// index at every degree) from the all-in-one start to perfection — the
// workload the sampler was built for — and sanity-checks the result
// shape.
func TestGraphHybridBalancesDense(t *testing.T) {
	g, err := graphs.NewRandomRegularSeed(128, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	v := make(loadvec.Vector, 128)
	v[0] = 512
	e := NewGraphJumpEngineMode(v, g, GraphSamplerRejection, rng.New(21))
	if _, ok := e.gidx.(*graphHybrid); !ok {
		t.Fatal("rejection mode did not build the hybrid for Δ=32, n=128")
	}
	res := e.Run(UntilPerfect(), 50_000_000)
	if !res.Stopped {
		t.Fatalf("dense hybrid run did not balance: %v", res)
	}
	if res.Final.Disc() != 0 {
		t.Fatalf("final discrepancy %g", res.Final.Disc())
	}
	if res.Moves < 500 || res.Activations < res.Moves {
		t.Fatalf("implausible counters: %v", res)
	}
}

// TestGraphHybridChurnWeight exercises the engine-level churn hooks
// (AddBall/RemoveBall/ForceMove) on a hybrid engine and validates the
// bound invariant after each, mirroring the exact index's churn test.
func TestGraphHybridChurnWeight(t *testing.T) {
	g := graphs.Expander{Side: 4}
	v := make(loadvec.Vector, 16)
	v[0] = 48
	e := NewGraphJumpEngineMode(v, g, GraphSamplerRejection, rng.New(6))
	gh := e.gidx.(*graphHybrid)
	r := rng.New(7)
	for i := 0; i < 300; i++ {
		switch r.Intn(3) {
		case 0:
			e.AddBall(r.Intn(16))
		case 1:
			if bin := e.RandomBin(); e.Cfg().M() > 1 {
				e.RemoveBall(bin)
			}
		case 2:
			src, dst := r.Intn(16), r.Intn(16)
			if src != dst && e.Cfg().Load(src) > 0 {
				e.ForceMove(src, dst)
			}
		}
		e.Step()
		if i%11 == 0 {
			checkHybridInvariants(t, gh, e.Cfg(), i)
		}
	}
	checkHybridInvariants(t, gh, e.Cfg(), 300)
}
