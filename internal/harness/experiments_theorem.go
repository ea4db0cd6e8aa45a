package harness

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// rlsRun runs plain RLS from gen to perfect balance and returns
// (continuous time, activations).
func rlsRun(n, m int, gen loadvec.Generator, r *rng.RNG) (float64, float64) {
	v := gen.Generate(n, m, r)
	e := sim.NewEngine(v, core.RLS{}, r)
	res := e.Run(sim.UntilPerfect(), 0)
	if !res.Stopped {
		panic(fmt.Sprintf("harness: RLS run exhausted budget at n=%d m=%d", n, m))
	}
	return res.Time, float64(res.Activations)
}

// regime describes one m(n) scaling used in the Theorem 1 sweeps.
type regime struct {
	name string
	m    func(n int) int
}

func theoremRegimes() []regime {
	return []regime{
		{"m=n", func(n int) int { return n }},
		{"m=n·ln n", func(n int) int { return n * int(math.Ceil(math.Log(float64(n)))) }},
		{"m=n^1.5", func(n int) int { return n * int(math.Ceil(math.Sqrt(float64(n)))) }},
		{"m=n²/4", func(n int) int { return n * n / 4 }},
	}
}

func sweepNs(s Scale) []int {
	if s == Full {
		return []int{64, 128, 256, 512, 1024}
	}
	return []int{64, 128, 256}
}

func sweepReps(s Scale) int {
	if s == Full {
		return 32
	}
	return 12
}

// lb2Reps is LB2's runs per row: at Quick scale, 576 runs put the exact
// 99.9% band of its ratio column at [0.869, 1.143].
func lb2Reps(s Scale) int { return 48 * sweepReps(s) }

// lb2Band is the exact two-sided level-(1−alpha) interval of LB2's ratio
// column over reps runs: T ~ Exp(μ) exactly, so reps·mean/μ ~
// Erlang(reps, 1).
func lb2Band(reps int, alpha float64) (lo, hi float64) {
	k := int64(reps)
	return stats.ErlangQuantile(k, alpha/2) / float64(reps),
		stats.ErlangQuantile(k, 1-alpha/2) / float64(reps)
}

func init() {
	register(Experiment{
		ID:       "T1",
		Title:    "E[T] = Θ(ln n + n²/m) across regimes (worst-case start)",
		PaperRef: "Theorem 1 (expectation)",
		Claim: "The mean time to perfect balance from the all-in-one-bin start, " +
			"divided by ln(n) + n²/m, stays within a constant band across n and m regimes.",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("T1", "Theorem 1 expectation bound",
				"regime", "n", "m", "E[T]", "ci95", "ln n + n²/m", "ratio")
			reps := sweepReps(cfg.Scale)
			var ratios []float64
			for _, reg := range theoremRegimes() {
				for _, n := range sweepNs(cfg.Scale) {
					m := reg.m(n)
					times := Replicate(cfg.Seed^uint64(n*31+m), reps, func(r *rng.RNG) float64 {
						tt, _ := rlsRun(n, m, loadvec.AllInOne(), r)
						return tt
					})
					var s stats.Summary
					s.AddAll(times)
					pred := core.Theorem1Expectation(n, m)
					ratio := s.Mean() / pred
					ratios = append(ratios, ratio)
					t.Addf(reg.name, n, m, s.Mean(), s.CI95(), pred, ratio)
				}
			}
			lo, hi := stats.RatioSpread(ones(len(ratios)), ratios)
			t.Note("ratio spread across all cells: [%.3g, %.3g] (Θ means this stays bounded)", lo, hi)
			t.Note("reps per cell: %d", reps)
			return t
		},
	})

	register(Experiment{
		ID:       "T2",
		Title:    "w.h.p. bound: tail quantiles scale with ln n · (1 + n²/m)",
		PaperRef: "Theorem 1 (w.h.p.)",
		Claim: "The 90th and 99th percentile balancing times, divided by " +
			"ln(n) + ln(n)·n²/m, stay within a constant band.",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("T2", "Theorem 1 w.h.p. bound",
				"regime", "n", "m", "p50", "p90", "p99", "whp-pred", "p99/pred")
			reps := 4 * sweepReps(cfg.Scale)
			regimes := []regime{theoremRegimes()[0], theoremRegimes()[1]}
			ns := sweepNs(cfg.Scale)
			for _, reg := range regimes {
				for _, n := range ns {
					m := reg.m(n)
					times := Replicate(cfg.Seed^uint64(n*77+m), reps, func(r *rng.RNG) float64 {
						tt, _ := rlsRun(n, m, loadvec.AllInOne(), r)
						return tt
					})
					pred := core.Theorem1WHP(n, m)
					t.Addf(reg.name, n, m,
						stats.Quantile(times, 0.5), stats.Quantile(times, 0.9),
						stats.Quantile(times, 0.99), pred, stats.Quantile(times, 0.99)/pred)
				}
			}
			t.Note("reps per cell: %d", reps)
			return t
		},
	})

	register(Experiment{
		ID:       "LB1",
		Title:    "Ω(ln n) lower bound: all balls in one bin",
		PaperRef: "§4 lower bound 1",
		Claim: "From the single-bin start, E[T] ≥ H_m − H_∅ (at least m−∅ " +
			"activations are needed; their expected duration telescopes to the " +
			"harmonic gap). With m = n² the n²/m term is O(1), so the harmonic " +
			"bound is also tight: the ratio stays bounded.",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("LB1", "harmonic lower bound",
				"n", "m", "E[T]", "ci95", "H_m−H_∅", "E[T]/bound")
			reps := 2 * sweepReps(cfg.Scale)
			for _, n := range sweepNs(cfg.Scale) {
				m := n * n // dense: Theorem 1 collapses to Θ(ln n), the binding term
				times := Replicate(cfg.Seed^uint64(n*13), reps, func(r *rng.RNG) float64 {
					tt, _ := rlsRun(n, m, loadvec.AllInOne(), r)
					return tt
				})
				var s stats.Summary
				s.AddAll(times)
				lb := core.LowerBoundAllInOne(n, m)
				t.Addf(n, m, s.Mean(), s.CI95(), lb, s.Mean()/lb)
			}
			t.Note("every ratio must be ≥ 1 (it is a lower bound) and stay bounded (it is tight at m=n²)")
			return t
		},
	})

	register(Experiment{
		ID:       "LB2",
		Title:    "Ω(n²/m) lower bound: one bin at ∅+1, one at ∅−1",
		PaperRef: "§4 lower bound 2",
		Claim: "From the ±1 configuration, T is exactly Exp((∅+1)/n): the measured " +
			"mean matches n/(∅+1) (not merely its order) and the measured p50/mean " +
			"matches ln 2 (exponential law).",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("LB2", "exact exponential lower-bound instance",
				"n", "∅", "E[T]", "ci95", "n/(∅+1)", "ratio", "p50/mean")
			reps := lb2Reps(cfg.Scale)
			for _, n := range sweepNs(cfg.Scale) {
				for _, avg := range []int{4, 16} {
					m := n * avg
					times := Replicate(cfg.Seed^uint64(n*7+avg), reps, func(r *rng.RNG) float64 {
						tt, _ := rlsRun(n, m, loadvec.DeltaPair(1), r)
						return tt
					})
					var s stats.Summary
					s.AddAll(times)
					exact := core.LowerBoundDeltaPair(n, m)
					t.Addf(n, avg, s.Mean(), s.CI95(), exact, s.Mean()/exact,
						stats.Quantile(times, 0.5)/s.Mean())
				}
			}
			lo, hi := lb2Band(reps, 0.001)
			t.Note("ratio ≈ 1 and p50/mean ≈ ln 2 ≈ 0.693 confirm the exact exponential law")
			t.Note("%d runs per row: under the exact law the ratio lies in [%.3f, %.3f] with probability 0.999", reps, lo, hi)
			return t
		},
	})
}

// ones returns a slice of k ones (denominators for RatioSpread).
func ones(k int) []float64 {
	o := make([]float64, k)
	for i := range o {
		o[i] = 1
	}
	return o
}
