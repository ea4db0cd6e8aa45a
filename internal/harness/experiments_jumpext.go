package harness

import (
	rls "repro"
	"repro/internal/loadvec"
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
			return regimeLawTable(cfg, "A7", "strict-rule jump-chain ablation", rls.Spec{Strict: true},
				"strict stop: W' = 0 ⟺ max−min ≤ 1 ⟺ perfect balance, so neither engine stalls short of the target")
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
			t := NewTable("A8", "graph jump-chain ablation", append([]string{"topology"}, lawColumns...)...)
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
			reps := 12 * sweepReps(cfg.Scale)
			graphRow := func(name string, topo rls.Topology, n int, start loadvec.Generator, reps int, salt uint64) lawRow {
				return lawRow{name, rls.Spec{Topology: topo}, n, 2 * n, start, reps, cfg.Seed ^ salt}
			}
			for _, row := range []lawRow{
				graphRow("ring", rls.RingTopology(), ring, loadvec.AllInOne(), reps, 1),
				graphRow("torus", rls.TorusTopology(side), side*side, loadvec.AllInOne(), reps, 1+8191),
				graphRow("hypercube", rls.HypercubeTopology(dim), 1<<dim, loadvec.AllInOne(), reps, 1+2*8191),
				graphRow("random-8-regular", rls.RandomRegularTopology(8, cfg.Seed|1), denseN, loadvec.OneChoice(), denseReps, 31),
				graphRow("expander", rls.ExpanderTopology(), denseN, loadvec.OneChoice(), denseReps, 31+8191),
			} {
				addLawRow(t, row)
			}
			t.Note("reps per engine per topology: %d (dense rows %d); KS significance 0.01; m = 2n", reps, denseReps)
			t.Note("ring/torus/hypercube start from a single bin, the dense rows (random-8-regular, expander) from a one-choice throw")
			t.Note("diffusion on a graph is slow: E[T] grows with the mixing time, and the jump engine's advantage grows with it")
			return t
		},
	})
}
