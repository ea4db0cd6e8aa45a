package harness

import (
	"fmt"
	"math"

	rls "repro"
	"repro/internal/core"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// discAtCheckpoints runs RLS (optionally with an adversary) and samples
// the discrepancy at the given times.
func discAtCheckpoints(n, m int, gen loadvec.Generator, adv core.Adversary, checkpoints []float64, r *rng.RNG) []float64 {
	v := gen.Generate(n, m, r)
	e := build(rls.Spec{}, v, r)
	if adv != nil {
		core.Attach(e, adv)
	}
	out := make([]float64, len(checkpoints))
	for i, tc := range checkpoints {
		e.Run(sim.UntilTime(tc), 200_000_000)
		out[i] = e.Cfg().Disc()
	}
	return out
}

func init() {
	register(Experiment{
		ID:       "DML",
		Title:    "Destructive Majorization Lemma: adversaries cannot help",
		PaperRef: "Lemma 2",
		Claim: "disc under any destructive-move adversary stochastically dominates " +
			"disc under plain RLS at every time, and mean balancing time only increases.",
		Run: func(cfg RunConfig) *Table {
			n, m, reps := 32, 160, 150
			if cfg.Scale == Full {
				n, m, reps = 64, 640, 400
			}
			pred := core.Theorem1Expectation(n, m)
			checkpoints := []float64{0.25 * pred, 0.5 * pred, pred}
			t := NewTable("DML", "stochastic dominance of adversarial discrepancy",
				"adversary", "checkpoint t", "mean disc plain", "mean disc adv",
				"dominates?", "max CDF violation")
			adversaries := []core.Adversary{
				core.RandomAdversary{Attempts: 1},
				core.ReverseAdversary{P: 0.3},
				core.ConcentratorAdversary{Budget: 1},
			}
			gen := loadvec.AllInOne()
			// Plain baseline once.
			plainByCk := make([][]float64, len(checkpoints))
			for i := range plainByCk {
				plainByCk[i] = make([]float64, reps)
			}
			plainRows := replicateVec(cfg.Seed, reps, func(r *rng.RNG) []float64 {
				return discAtCheckpoints(n, m, gen, nil, checkpoints, r)
			})
			for rep, row := range plainRows {
				for i := range checkpoints {
					plainByCk[i][rep] = row[i]
				}
			}
			eps := 2 * stats.DKWEps(reps, 0.001)
			for _, adv := range adversaries {
				advRows := replicateVec(cfg.Seed^0xabc, reps, func(r *rng.RNG) []float64 {
					return discAtCheckpoints(n, m, gen, adv, checkpoints, r)
				})
				for i, tc := range checkpoints {
					advCk := make([]float64, reps)
					for rep, row := range advRows {
						advCk[rep] = row[i]
					}
					ok, rep := stats.Dominates(plainByCk[i], advCk, eps)
					t.Addf(adv.Name(), tc, stats.Mean(plainByCk[i]), stats.Mean(advCk),
						fmt.Sprintf("%v", ok), rep.MaxViolation)
				}
			}
			t.Note("n=%d m=%d reps=%d; dominance tested with DKW noise band eps=%.3g", n, m, reps, eps)
			t.Note("the coupling proof of Lemma 2 is verified exhaustively by experiment F2")
			return t
		},
	})

	register(Experiment{
		ID:       "F1",
		Title:    "move classification on the Figure 1 staircase",
		PaperRef: "Figure 1",
		Claim: "every ordered bin pair is classified as RLS / neutral / destructive " +
			"exactly as §4 defines; neutral = intersection of both.",
		Run: func(cfg RunConfig) *Table {
			v := loadvec.Vector{7, 6, 6, 5, 4, 4, 3, 2, 2, 2, 1, 1, 1, 1, 1, 0}
			counts := map[core.MoveKind]int{}
			for src := range v {
				for dst := range v {
					if src == dst {
						continue
					}
					counts[core.Classify(v, src, dst)]++
				}
			}
			t := NewTable("F1", "move kinds over all ordered bin pairs",
				"kind", "count")
			for _, k := range []core.MoveKind{core.RLSMove, core.Neutral, core.Destructive, core.Illegal} {
				t.Addf(k.String(), counts[k])
			}
			total := 0
			for _, c := range counts {
				total += c
			}
			t.Note("configuration: %v (16 bins as in the paper's figure)", v)
			t.Note("total ordered pairs: %d; ASCII rendering: cmd/rlsfigs -fig 1", total)
			return t
		},
	})

	register(Experiment{
		ID:       "F2",
		Title:    "Lemma 2 coupling invariant verification",
		PaperRef: "Figure 2 / Lemma 2 proof",
		Claim: "the coupled step keeps ℓ′ close to ℓ (≤ 1 destructive move apart) " +
			"and disc(ℓ) ≤ disc(ℓ′), over exhaustive small cases and random trajectories.",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("F2", "coupling verification",
				"mode", "instances", "steps checked", "violations")
			// Exhaustive: all sorted configs of ≤ 8 balls in 3 bins, all
			// destructive moves, all coupled choices.
			exInstances, exSteps, exViol := exhaustiveCouplingScan(3, 8)
			t.Addf("exhaustive (n=3, m≤8)", exInstances, exSteps, exViol)
			// Randomized long runs.
			trials := 60
			steps := 400
			if cfg.Scale == Full {
				trials, steps = 200, 1000
			}
			viol := 0
			root := rng.New(cfg.Seed + 5)
			for i := 0; i < trials; i++ {
				r := root.Split()
				nn := 4 + r.Intn(8)
				l := make(loadvec.Vector, nn)
				for j := range l {
					l[j] = r.Intn(10)
				}
				if l.Balls() == 0 {
					l[0] = 5
				}
				l = l.SortedDesc()
				srcRank := 1 + r.Intn(nn-1)
				lp, err := core.DestructiveMoveOnSorted(l, srcRank, r.Intn(srcRank))
				if err != nil {
					continue
				}
				if _, _, err := core.CoupledRun(l, lp, steps, r); err != nil {
					viol++
				}
			}
			t.Addf("randomized trajectories", trials, trials*steps, viol)
			t.Note("0 violations reproduces Lemma 2's inductive invariant")
			return t
		},
	})

	register(Experiment{
		ID:       "F3",
		Title:    "Lemma 13 reshaping and one-epoch shrinkage",
		PaperRef: "Figure 3 / Lemma 13",
		Claim: "from the half-spread(x) shape, after one epoch of length " +
			"ln((∅+x)/(∅−x)) the discrepancy drops to ≤ 2√(x·ln n) w.h.p.",
		Run: func(cfg RunConfig) *Table {
			n := 64
			reps := 40
			if cfg.Scale == Full {
				n, reps = 256, 100
			}
			avg := int(16 * logf(n))
			m := n * avg
			t := NewTable("F3", "Lemma 13 epoch shrinkage",
				"x", "epoch len", "mean disc after", "p95 disc after", "target 2√(x ln n)", "p95 ≤ target?")
			x := avg / 2
			for epoch := 0; epoch < 3 && float64(x) >= 4*logf(n); epoch++ {
				epochLen := core.Lemma13EpochLength(float64(avg), float64(x))
				xx := x
				discs := Replicate(cfg.Seed+uint64(epoch), reps, func(r *rng.RNG) float64 {
					v := loadvec.HalfSpread(xx).Generate(n, m, r)
					e := build(rls.Spec{}, v, r)
					e.Run(sim.UntilTime(epochLen), 200_000_000)
					return e.Cfg().Disc()
				})
				target := core.Lemma13Shrink(float64(x), n)
				p95 := stats.Quantile(discs, 0.95)
				t.Addf(x, epochLen, stats.Mean(discs), p95, target,
					fmt.Sprintf("%v", p95 <= target))
				x = int(target)
			}
			t.Note("n=%d ∅=%d reps=%d; x iterates as in the Lemma 12 chaining", n, avg, reps)
			return t
		},
	})
}

// replicateVec is Replicate for vector-valued replications (sequential;
// the vector experiments are cheap relative to the scalar sweeps).
func replicateVec(seed uint64, reps int, fn func(r *rng.RNG) []float64) [][]float64 {
	root := rng.New(seed)
	out := make([][]float64, reps)
	for i := range out {
		out[i] = fn(root.Split())
	}
	return out
}

func logf(n int) float64 { return math.Log(float64(n)) }

// exhaustiveCouplingScan enumerates every sorted configuration of at most
// maxBalls balls in n bins, every destructive move on it, and every
// coupled random choice, checking the Lemma 2 invariant. It returns the
// number of (ℓ, ℓ′) instances, coupled steps checked, and violations.
func exhaustiveCouplingScan(n, maxBalls int) (instances, steps, violations int) {
	var configs []loadvec.Vector
	var gen func(prefix loadvec.Vector, remaining, maxNext int)
	gen = func(prefix loadvec.Vector, remaining, maxNext int) {
		if len(prefix) == n {
			if remaining == 0 && prefix.Balls() > 0 {
				configs = append(configs, prefix.Clone())
			}
			return
		}
		limit := remaining
		if maxNext < limit {
			limit = maxNext
		}
		for v := limit; v >= 0; v-- {
			gen(append(prefix, v), remaining-v, v)
		}
	}
	for m := 1; m <= maxBalls; m++ {
		gen(loadvec.Vector{}, m, m)
	}
	for _, l := range configs {
		m := l.Balls()
		for srcRank := 1; srcRank < n; srcRank++ {
			for dstRank := 0; dstRank < srcRank; dstRank++ {
				lp, err := core.DestructiveMoveOnSorted(l, srcRank, dstRank)
				if err != nil {
					continue
				}
				instances++
				for ball := 0; ball < m; ball++ {
					for dr := 0; dr < n; dr++ {
						nl, nlp := core.CoupledStep(l, lp, ball, dr)
						steps++
						if !core.CloseTo(nl, nlp) || nl.Disc() > nlp.Disc()+1e-9 {
							violations++
						}
					}
				}
			}
		}
	}
	return
}
