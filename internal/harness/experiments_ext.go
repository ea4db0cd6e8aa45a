package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/hetero"
	"repro/internal/loadvec"
	"repro/internal/opensys"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "X1",
		Title:    "bins with speeds: convergence to speed-proportional balance",
		PaperRef: "§7 direction 1",
		Claim: "RLS-with-speeds reaches a Nash state (no ball can improve) from the " +
			"worst-case start; time grows with speed skew, final normalized disc is small.",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("X1", "speed heterogeneity",
				"profile", "n", "m", "E[T to Nash]", "ci95", "mean final speed-disc")
			n := 32
			if cfg.Scale == Full {
				n = 128
			}
			m := 16 * n
			reps := sweepReps(cfg.Scale)
			profiles := []struct {
				name   string
				speeds []float64
			}{
				{"uniform", hetero.UniformSpeeds(n)},
				{"bimodal 4x/25%", hetero.BimodalSpeeds(n, 4, 0.25)},
				{"power-law α=0.5", hetero.PowerLawSpeeds(n, 0.5)},
			}
			for _, p := range profiles {
				speeds := p.speeds
				times, discs := Replicate2(cfg.Seed^uint64(len(p.name)), reps, func(r *rng.RNG) (float64, float64) {
					mover, err := hetero.NewSpeedRLS(speeds)
					if err != nil {
						panic(err)
					}
					v := loadvec.AllInOne().Generate(n, m, r)
					e := sim.NewEngine(v, mover, r)
					stop := func(e *sim.Engine) bool {
						return hetero.IsSpeedNash(e.Cfg().Loads(), speeds)
					}
					res := e.Run(stop, 0)
					return res.Time, hetero.SpeedDisc(res.Final, speeds)
				})
				var s stats.Summary
				s.AddAll(times)
				t.Addf(p.name, n, m, s.Mean(), s.CI95(), stats.Mean(discs))
			}
			t.Note("Nash = no single ball can strictly improve its experienced load ℓ_i/s_i")
			return t
		},
	})

	register(Experiment{
		ID:       "X2",
		Title:    "weighted balls: Nash convergence and the max-weight disc floor",
		PaperRef: "§7 direction 2",
		Claim: "Weighted RLS converges to a Nash state whose discrepancy is at most " +
			"max_b w_b; heavier tails converge slower.",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("X2", "weight heterogeneity",
				"profile", "n", "m", "E[T to Nash]", "ci95", "mean final disc", "max weight")
			n := 16
			m := 8 * n
			if cfg.Scale == Full {
				n = 64
				m = 8 * n
			}
			reps := sweepReps(cfg.Scale)
			profiles := []struct {
				name    string
				weights func(r *rng.RNG) []float64
				maxW    float64
			}{
				{"unit", func(*rng.RNG) []float64 { return hetero.UniformWeights(m) }, 1},
				{"bimodal 5x/10%", func(*rng.RNG) []float64 { return hetero.BimodalWeights(m, 5, 0.1) }, 5},
				{"zipf α=1", func(r *rng.RNG) []float64 { return hetero.ZipfWeights(m, 1, r) }, 1},
			}
			for _, p := range profiles {
				pw := p
				times, discs := Replicate2(cfg.Seed^uint64(m+len(p.name)), reps, func(r *rng.RNG) (float64, float64) {
					e, err := hetero.NewWeightedEngine(n, pw.weights(r), hetero.AllInBin(m, 0), r)
					if err != nil {
						panic(err)
					}
					if !e.RunUntilNash(500_000_000, 64) {
						panic("weighted run exhausted budget")
					}
					return e.Time(), e.Disc()
				})
				var s stats.Summary
				s.AddAll(times)
				t.Addf(pw.name, n, m, s.Mean(), s.CI95(), stats.Mean(discs), pw.maxW)
			}
			t.Note("final disc ≤ max weight in every profile (Nash floor)")
			return t
		},
	})

	register(Experiment{
		ID:       "X3",
		Title:    "topologies: balancing time vs estimated mixing time",
		PaperRef: "§7 direction 3 (cf. [6])",
		Claim: "Balancing time orders with the topology's mixing time: " +
			"complete < hypercube < torus < ring at equal n and m.",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("X3", "topology sweep",
				"topology", "n", "τ_mix estimate", "E[T]", "ci95", "E[T]/complete")
			// n is a power of four so the torus side and hypercube dimension
			// describe exactly the same bin count.
			side, dim := 8, 6
			reps := sweepReps(cfg.Scale)
			if cfg.Scale == Full {
				side, dim = 16, 8
				reps = 12 // the ring's diffusive timescale dominates cost
			}
			n := side * side
			m := 8 * n
			gs := []graphs.Graph{
				graphs.Complete{Vertices: n},
				graphs.Hypercube{Dim: dim},
				graphs.Torus2D{Side: side},
				graphs.Ring{Vertices: n},
			}
			var completeMean float64
			for i, g := range gs {
				gg := g
				times := Replicate(cfg.Seed^uint64(i*17), reps, func(r *rng.RNG) float64 {
					v := loadvec.AllInOne().Generate(n, m, r)
					e := sim.NewEngine(v, graphs.GraphRLS{G: gg}, r)
					res := e.Run(sim.UntilPerfect(), 0)
					if !res.Stopped {
						panic(fmt.Sprintf("graph run on %s exhausted budget", gg.Name()))
					}
					return res.Time
				})
				var s stats.Summary
				s.AddAll(times)
				if i == 0 {
					completeMean = s.Mean()
				}
				t.Addf(g.Name(), n, graphs.MixingTimeEstimate(g), s.Mean(), s.CI95(), s.Mean()/completeMean)
			}
			t.Note("τ_mix estimated as ln(n)/(lazy spectral gap); [6] proves τ_mix·ln m for threshold protocols")
			return t
		},
	})

	register(Experiment{
		ID:       "O1",
		Title:    "open system ([11]): RLS migration collapses the max queue",
		PaperRef: "§2 discussion of [11] (open systems)",
		Claim: "With Poisson(λn) arrivals and rate-μ M/M/1 servers, the " +
			"no-migration maximum queue follows the log_{1/ρ}(n) extreme-value " +
			"scale; adding rate-1 RLS migration clocks collapses the time-averaged " +
			"maximum and discrepancy to O(1) and reduces mean jobs (idle servers " +
			"get work — behaviour approaching the pooled M/M/n queue).",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("O1", "open-system steady state",
				"ρ", "β", "mean jobs/server", "M/M/1 pred", "mean max queue",
				"log_{1/ρ}n scale", "mean disc", "frac perfect")
			n := 64
			warm, window := 2000.0, 15000.0
			if cfg.Scale == Full {
				n, warm, window = 128, 5000, 60000
			}
			for _, rho := range []float64{0.5, 0.8, 0.9} {
				for _, beta := range []float64{0, 1} {
					s, err := opensys.New(opensys.Params{N: n, Lambda: rho, Mu: 1, Beta: beta},
						rng.New(cfg.Seed^uint64(1000*rho)+uint64(beta)))
					if err != nil {
						panic(err)
					}
					st := s.Run(warm, window)
					t.Addf(rho, beta, st.MeanJobs/float64(n), opensys.MM1MeanJobs(rho),
						st.MeanMax, opensys.MM1MaxQueueScale(n, rho), st.MeanDisc, st.FracPerfect)
				}
			}
			t.Note("n=%d servers, warmup %g, window %g time units", n, warm, window)
			t.Note("β=0 rows are the n-independent-M/M/1 baseline; β=1 adds the paper's migration clocks")
			return t
		},
	})

	register(Experiment{
		ID:       "A2",
		Title:    "ablation: ≥ tie rule (paper) vs > rule ([12]/[11])",
		PaperRef: "§3 remark",
		Claim: "Both variants have precisely the same balancing-time law for " +
			"identical balls and bins.",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("A2", "tie-rule ablation",
				"rule", "n", "m", "E[T]", "ci95")
			n, m := 64, 1024
			if cfg.Scale == Full {
				n, m = 256, 16384
			}
			reps := 3 * sweepReps(cfg.Scale)
			for _, mv := range []sim.Mover{core.RLS{}, core.StrictRLS{}} {
				mover := mv
				times := Replicate(cfg.Seed^uint64(len(mover.Name())), reps, func(r *rng.RNG) float64 {
					v := loadvec.AllInOne().Generate(n, m, r)
					e := sim.NewEngine(v, mover, r)
					return e.Run(sim.UntilPerfect(), 0).Time
				})
				var sm stats.Summary
				sm.AddAll(times)
				t.Addf(mover.Name(), n, m, sm.Mean(), sm.CI95())
			}
			t.Note("means agreeing within CI reproduces the §3 equivalence remark")
			return t
		},
	})
}
