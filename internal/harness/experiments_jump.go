package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "A4",
		Title:    "ablation: direct engine vs rejection-free jump engine",
		PaperRef: "Theorem 1 / Lemmas 15–16 (the embedded jump chain)",
		Claim: "Simulating only the jump chain of productive moves — geometric " +
			"activation blocks, Gamma(k, m) time gaps, exact (src, dst) sampling " +
			"from the level index — yields the same balancing-time law as the " +
			"per-activation engine (two-sample KS test), at O(moves) instead of " +
			"O(activations) cost.",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("A4", "jump-chain ablation",
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
							res = sim.NewJumpEngine(v, r).Run(sim.UntilPerfect(), 0)
						} else {
							res = sim.NewEngine(v, core.RLS{}, r).Run(sim.UntilPerfect(), 0)
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
			t.Note("acts ratio ≈ 1: the geometric blocks tally the skipped nulls faithfully; moves ratio ≈ 1: same jump chain")
			return t
		},
	})
}
