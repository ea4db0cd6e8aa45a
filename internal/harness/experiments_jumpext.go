package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "A7",
		Title:    "ablation: strict-rule direct engine vs strict-rule jump engine",
		PaperRef: "§3 remark / [12],[11] (the strict tie rule)",
		Claim: "The strict rule's jump chain — move weight W' = Σ v·count[v]·C(v−2), " +
			"the eligible-destination prefix shifted one level down — yields the " +
			"same balancing-time law as the per-activation strict engine " +
			"(two-sample KS test), at O(moves) instead of O(activations) cost.",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("A7", "strict-rule jump-chain ablation",
				"regime", "n", "m", "E[T] direct", "E[T] jump", "acts ratio",
				"moves ratio", "KS D", "crit(α=0.01)", "same law?")
			regimes := []struct {
				name string
				n, m int
			}{
				{"end-game n=m", 48, 48},
				{"dense m=8n", 24, 192},
			}
			reps := 12 * sweepReps(cfg.Scale)
			if cfg.Scale == Full {
				regimes[0].n, regimes[0].m = 128, 128
				regimes[1].n, regimes[1].m = 64, 512
			}
			type runStats struct{ time, acts, moves float64 }
			for ri, rg := range regimes {
				n, m := rg.n, rg.m
				collect := func(seed uint64, jump bool) (times []float64, acts, moves float64) {
					rs := replicate(seed, reps, func(r *rng.RNG) runStats {
						v := loadvec.AllInOne().Generate(n, m, nil)
						var res sim.Result
						if jump {
							res = sim.NewStrictJumpEngine(v, r).Run(sim.UntilPerfect(), 0)
						} else {
							res = sim.NewEngine(v, core.StrictRLS{}, nil, r).Run(sim.UntilPerfect(), 0)
						}
						return runStats{res.Time, float64(res.Activations), float64(res.Moves)}
					})
					times = make([]float64, len(rs))
					for i, s := range rs {
						times[i] = s.time
						acts += s.acts / float64(reps)
						moves += s.moves / float64(reps)
					}
					return times, acts, moves
				}
				seed := cfg.Seed ^ uint64(1+ri*8191)
				directT, directActs, directMoves := collect(seed, false)
				jumpT, jumpActs, jumpMoves := collect(seed^0x9e3779b97f4a7c15, true)
				same, d := stats.SameDistribution(directT, jumpT, 0.01)
				t.Addf(rg.name, n, m,
					stats.Mean(directT), stats.Mean(jumpT),
					jumpActs/directActs, jumpMoves/directMoves,
					d, stats.KSCritical(reps, reps, 0.01), fmt.Sprintf("%v", same))
			}
			t.Note("reps per engine per regime: %d; KS significance 0.01", reps)
			t.Note("strict stop: W' = 0 ⟺ max−min ≤ 1 ⟺ perfect balance, so neither engine stalls short of the target")
			return t
		},
	})

	register(Experiment{
		ID:       "A8",
		Title:    "ablation: graph-restricted direct engine vs graph jump engine",
		PaperRef: "§7 (graph-restricted sampling) / Bogdan et al. local search",
		Claim: "On a Δ-regular topology the jump chain with exact per-source " +
			"admissible-slot counts — W_G = Σ load(i)·adm[i], per-activation move " +
			"probability W_G/(m·Δ) — yields the same balancing-time law as the " +
			"per-activation GraphRLS engine (two-sample KS test), with zero " +
			"rejected samples. On the dense families (random 8-regular, MGG " +
			"expander) the rejection-within-blocks hybrid — blocks sized by the " +
			"lazy bound Ŵ_G ≥ W_G, flagged events accepted w.p. adm/admUB — " +
			"matches the exact jump engine's law in turn.",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("A8", "graph jump-chain ablation",
				"topology", "n", "m", "E[T] direct", "E[T] jump", "acts ratio",
				"moves ratio", "KS D", "crit(α=0.01)", "same law?")
			ring, side, dim := 16, 4, 4
			if cfg.Scale == Full {
				ring, side, dim = 64, 8, 6
			}
			topos := []struct {
				name string
				g    graphs.Graph
			}{
				{"ring", graphs.Ring{Vertices: ring}},
				{"torus", graphs.Torus2D{Side: side}},
				{"hypercube", graphs.Hypercube{Dim: dim}},
			}
			reps := 12 * sweepReps(cfg.Scale)
			type runStats struct{ time, acts, moves float64 }
			for ti, tp := range topos {
				g := tp.g
				n := g.N()
				m := 2 * n
				collect := func(seed uint64, jump bool) (times []float64, acts, moves float64) {
					rs := replicate(seed, reps, func(r *rng.RNG) runStats {
						v := loadvec.AllInOne().Generate(n, m, nil)
						var res sim.Result
						if jump {
							res = sim.NewGraphJumpEngine(v, g, r).Run(sim.UntilPerfect(), 0)
						} else {
							res = sim.NewEngine(v, graphs.GraphRLS{G: g}, nil, r).Run(sim.UntilPerfect(), 0)
						}
						return runStats{res.Time, float64(res.Activations), float64(res.Moves)}
					})
					times = make([]float64, len(rs))
					for i, s := range rs {
						times[i] = s.time
						acts += s.acts / float64(reps)
						moves += s.moves / float64(reps)
					}
					return times, acts, moves
				}
				seed := cfg.Seed ^ uint64(1+ti*8191)
				directT, directActs, directMoves := collect(seed, false)
				jumpT, jumpActs, jumpMoves := collect(seed^0x9e3779b97f4a7c15, true)
				same, d := stats.SameDistribution(directT, jumpT, 0.01)
				t.Addf(tp.name, n, m,
					stats.Mean(directT), stats.Mean(jumpT),
					jumpActs/directActs, jumpMoves/directMoves,
					d, stats.KSCritical(reps, reps, 0.01), fmt.Sprintf("%v", same))
			}
			// The dense families, with rejection-within-blocks forced (auto
			// builds the exact index at every degree). Direct simulation at
			// the Full sizes is out of reach, so these rows hold the hybrid to
			// the exact jump engine — whose law the rows above pin to the
			// direct engine — closing the chain direct ≡ exact ≡ hybrid.
			// The one-choice start keeps the Full size (n = 65536) feasible.
			denseSide := 16
			if cfg.Scale == Full {
				denseSide = 256
			}
			denseN := denseSide * denseSide
			rr, err := graphs.NewRandomRegularSeed(denseN, 8, cfg.Seed|1)
			if err != nil {
				panic(fmt.Sprintf("harness: A8 random-regular build: %v", err))
			}
			dense := []struct {
				name string
				g    graphs.Graph
			}{
				{"random-8-regular", rr},
				{"expander", graphs.Expander{Side: denseSide}},
			}
			const denseReps = 8
			for di, tp := range dense {
				g := tp.g
				n := g.N()
				m := 2 * n
				collect := func(seed uint64, mode sim.GraphSamplerMode) (times []float64, acts, moves float64) {
					rs := replicate(seed, denseReps, func(r *rng.RNG) runStats {
						v := loadvec.OneChoice().Generate(n, m, r)
						res := sim.NewGraphJumpEngineMode(v, g, mode, r).Run(sim.UntilPerfect(), 0)
						return runStats{res.Time, float64(res.Activations), float64(res.Moves)}
					})
					times = make([]float64, len(rs))
					for i, s := range rs {
						times[i] = s.time
						acts += s.acts / float64(denseReps)
						moves += s.moves / float64(denseReps)
					}
					return times, acts, moves
				}
				seed := cfg.Seed ^ uint64(31+di*8191)
				exactT, exactActs, exactMoves := collect(seed, sim.GraphSamplerExact)
				hybT, hybActs, hybMoves := collect(seed^0x9e3779b97f4a7c15, sim.GraphSamplerRejection)
				same, d := stats.SameDistribution(exactT, hybT, 0.01)
				t.Addf(tp.name, n, m,
					stats.Mean(exactT), stats.Mean(hybT),
					hybActs/exactActs, hybMoves/exactMoves,
					d, stats.KSCritical(denseReps, denseReps, 0.01), fmt.Sprintf("%v", same))
			}
			t.Note("reps per engine per topology: %d; KS significance 0.01; m = 2n from the single-bin start", reps)
			t.Note("dense rows (random-8-regular, expander): exact jump vs forced-rejection hybrid, %d reps each, one-choice start", denseReps)
			t.Note("diffusion on a graph is slow: E[T] grows with the mixing time, and the jump engine's advantage grows with it")
			return t
		},
	})
}
