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
							res = sim.NewEngine(v, core.StrictRLS{}, r).Run(sim.UntilPerfect(), 0)
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
			"rejected samples, on bounded-degree families (ring, torus, " +
			"hypercube) and on the dense ones (random 8-regular, MGG expander) alike.",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("A8", "graph jump-chain ablation",
				"topology", "n", "m", "E[T] direct", "E[T] jump", "acts ratio",
				"moves ratio", "KS D", "crit(α=0.01)", "same law?")
			ring, side, dim := 16, 4, 4
			// The dense families (random 8-regular, MGG expander) start
			// from a one-choice throw. Their 48 reps put the KS critical
			// value at 0.33; with a handful the gate would pass almost any
			// pair. Full keeps them at a size (n = 1024) the direct engine
			// still finishes.
			denseSide, denseReps := 16, 48
			if cfg.Scale == Full {
				ring, side, dim = 64, 8, 6
				denseSide = 32
			}
			denseN := denseSide * denseSide
			rr, err := graphs.NewRandomRegularSeed(denseN, 8, cfg.Seed|1)
			if err != nil {
				panic(fmt.Sprintf("harness: A8 random-regular build: %v", err))
			}
			reps := 12 * sweepReps(cfg.Scale)
			rows := []struct {
				name  string
				g     graphs.Graph
				start loadvec.Generator
				reps  int
				salt  uint64
			}{
				{"ring", graphs.Ring{Vertices: ring}, loadvec.AllInOne(), reps, 1},
				{"torus", graphs.Torus2D{Side: side}, loadvec.AllInOne(), reps, 1 + 8191},
				{"hypercube", graphs.Hypercube{Dim: dim}, loadvec.AllInOne(), reps, 1 + 2*8191},
				{"random-8-regular", rr, loadvec.OneChoice(), denseReps, 31},
				{"expander", graphs.Expander{Side: denseSide}, loadvec.OneChoice(), denseReps, 31 + 8191},
			}
			type runStats struct{ time, acts, moves float64 }
			for _, row := range rows {
				g := row.g
				n := g.N()
				m := 2 * n
				collect := func(seed uint64, jump bool) (times []float64, acts, moves float64) {
					rs := replicate(seed, row.reps, func(r *rng.RNG) runStats {
						v := row.start.Generate(n, m, r)
						var res sim.Result
						if jump {
							res = sim.NewGraphJumpEngine(v, g, r).Run(sim.UntilPerfect(), 0)
						} else {
							res = sim.NewEngine(v, graphs.GraphRLS{G: g}, r).Run(sim.UntilPerfect(), 0)
						}
						return runStats{res.Time, float64(res.Activations), float64(res.Moves)}
					})
					times = make([]float64, len(rs))
					for i, s := range rs {
						times[i] = s.time
						acts += s.acts / float64(row.reps)
						moves += s.moves / float64(row.reps)
					}
					return times, acts, moves
				}
				seed := cfg.Seed ^ row.salt
				directT, directActs, directMoves := collect(seed, false)
				jumpT, jumpActs, jumpMoves := collect(seed^0x9e3779b97f4a7c15, true)
				same, d := stats.SameDistribution(directT, jumpT, 0.01)
				t.Addf(row.name, n, m,
					stats.Mean(directT), stats.Mean(jumpT),
					jumpActs/directActs, jumpMoves/directMoves,
					d, stats.KSCritical(row.reps, row.reps, 0.01), fmt.Sprintf("%v", same))
			}
			t.Note("reps per engine per topology: %d (dense rows %d); KS significance 0.01; m = 2n", reps, denseReps)
			t.Note("ring/torus/hypercube start from a single bin, the dense rows (random-8-regular, expander) from a one-choice throw")
			t.Note("diffusion on a graph is slow: E[T] grows with the mixing time, and the jump engine's advantage grows with it")
			return t
		},
	})
}
