package harness

import (
	"fmt"

	rls "repro"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "A5",
		Title:    "ablation: direct engine vs goroutine-sharded engine",
		PaperRef: "§3 (m independent Poisson clocks — a naturally parallel process)",
		Claim: "Partitioning the bins across concurrent shard workers — local " +
			"activations applied immediately, cross-shard moves deferred to " +
			"epoch barriers behind a stale-snapshot filter — preserves the " +
			"balancing-time law of the sequential direct engine (two-sample KS " +
			"test) when epochs are fine relative to the balancing time, while " +
			"cross-shard traffic stays a bounded share of activations. A third " +
			"row runs the auto epoch users get by default (shardedActsPerEpoch " +
			"activations per shard between barriers) to show how far a coarse " +
			"epoch strays from the sequential law.",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("A5", "sharded-engine ablation",
				"regime", "n", "m", "P", "epoch", "E[T] direct", "E[T] sharded",
				"x-moves/act", "KS D", "crit(α=0.01)", "same law?")
			regimes := []struct {
				name string
				n, m int
				p    int
				auto bool // epoch 0: the auto-sized default
			}{
				{"all-in-one m=8n", 24, 192, 2, false},
				{"dense one-choice m=8n", 32, 256, 4, false},
				{"dense one-choice m=8n", 32, 256, 4, true},
			}
			reps := 8 * sweepReps(cfg.Scale)
			if cfg.Scale == Full {
				regimes[0].n, regimes[0].m = 48, 384
				regimes[1].n, regimes[1].m = 64, 512
				regimes[2].n, regimes[2].m = 64, 512
			}
			for ri, rg := range regimes {
				n, m, p := rg.n, rg.m, rg.p
				gen := loadvec.Generator(loadvec.AllInOne())
				if ri > 0 {
					gen = loadvec.OneChoice()
				}
				// Fine epochs: about one activation per shard between
				// barriers, so deferral delays are ~1/m of a time unit —
				// negligible against balancing times of a few units.
				epoch, epochName := float64(p)/float64(m), "P/m"
				if rg.auto {
					epoch, epochName = 0, "auto"
				}
				seed := cfg.Seed ^ uint64(1+ri*524287)
				directT := Replicate(seed, reps, func(r *rng.RNG) float64 {
					v := gen.Generate(n, m, r)
					return build(rls.Spec{}, v, r).Run(sim.UntilPerfect(), 0).Time
				})
				// Replicate2 keeps the per-rep cross-move share out of shared
				// state: replications run on parallel workers.
				shardedT, crossPerAct := Replicate2(seed^0x9e3779b97f4a7c15, reps, func(r *rng.RNG) (float64, float64) {
					v := gen.Generate(n, m, r)
					e := sim.NewSharded(v, p, epoch, r)
					res := e.Run(sim.ShardedUntilPerfect(), 0)
					return res.Time, float64(e.CrossApplied()) / float64(res.Activations)
				})
				crossFrac := stats.Mean(crossPerAct)
				same, d := stats.SameDistribution(directT, shardedT, 0.01)
				t.Addf(rg.name, n, m, p, epochName,
					stats.Mean(directT), stats.Mean(shardedT),
					crossFrac, d, stats.KSCritical(reps, reps, 0.01),
					fmt.Sprintf("%v", same))
			}
			t.Note("reps per engine per regime: %d; KS significance 0.01", reps)
			t.Note("x-moves/act: applied cross-shard moves per activation — the queue-drained minority")
			t.Note("epoch P/m: about one activation per shard between barriers; auto: the default sized for throughput, whose balancing time is observed only at barriers")
			return t
		},
	})
}
