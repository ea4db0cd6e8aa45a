package harness

import (
	"fmt"

	rls "repro"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// lawColumns are the columns of a jump-law ablation table after its
// first (row label) column.
var lawColumns = []string{"n", "m", "E[T] direct", "E[T] jump", "acts ratio",
	"moves ratio", "KS D", "crit(α=0.01)", "same law?"}

// lawRow is one row of a jump-law ablation (A4, A7, A8): a base spec run
// to perfect balance from the same start with Mode direct and with Mode
// jump, reps runs each.
type lawRow struct {
	name  string
	spec  rls.Spec
	n, m  int
	start loadvec.Generator
	reps  int
	seed  uint64
}

// addLawRow runs row with the mode flipped between the direct and the
// jump engine and adds their comparison to t: mean balancing times, the
// jump/direct ratios of mean activations and moves, and the two-sample KS
// verdict on the balancing times at α = 0.01.
func addLawRow(t *Table, row lawRow) {
	type runStats struct{ time, acts, moves float64 }
	collect := func(mode rls.EngineMode, seed uint64) (times []float64, acts, moves float64) {
		spec := row.spec
		spec.Mode = mode
		rs := replicate(seed, row.reps, func(r *rng.RNG) runStats {
			v := row.start.Generate(row.n, row.m, r)
			res := build(spec, v, r).Run(sim.UntilPerfect(), 0)
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
	directT, directActs, directMoves := collect(rls.DirectEngine, row.seed)
	jumpT, jumpActs, jumpMoves := collect(rls.JumpEngine, row.seed^0x9e3779b97f4a7c15)
	same, d := stats.SameDistribution(directT, jumpT, 0.01)
	t.Addf(row.name, row.n, row.m,
		stats.Mean(directT), stats.Mean(jumpT),
		jumpActs/directActs, jumpMoves/directMoves,
		d, stats.KSCritical(row.reps, row.reps, 0.01), fmt.Sprintf("%v", same))
}

// regimeLawTable is A4's and A7's table: spec's law ablation in two
// regimes from the single-bin start, the end-game n = m and the dense
// m = 8n, closed by note.
func regimeLawTable(cfg RunConfig, id, title string, spec rls.Spec, note string) *Table {
	t := NewTable(id, title, append([]string{"regime"}, lawColumns...)...)
	reps := 12 * sweepReps(cfg.Scale)
	rows := []lawRow{
		{name: "end-game n=m", n: 48, m: 48},
		{name: "dense m=8n", n: 24, m: 192},
	}
	if cfg.Scale == Full {
		rows[0].n, rows[0].m = 128, 128
		rows[1].n, rows[1].m = 64, 512
	}
	for ri, row := range rows {
		row.spec, row.start, row.reps = spec, loadvec.AllInOne(), reps
		row.seed = cfg.Seed ^ uint64(1+ri*8191)
		addLawRow(t, row)
	}
	t.Note("reps per engine per regime: %d; KS significance 0.01", reps)
	t.Note("%s", note)
	return t
}

func init() {
	register(Experiment{
		ID:       "A4",
		Title:    "ablation: direct engine vs rejection-free jump engine",
		PaperRef: "Theorem 1 / Lemmas 15–16 (the embedded jump chain)",
		Claim: "Simulating only the jump chain of productive moves — one Exp(R) " +
			"gap per move, a Poisson tally of the null activations, exact (src, dst) " +
			"sampling from the level index — yields the same balancing-time law as the " +
			"per-activation engine (two-sample KS test), at O(moves) instead of " +
			"O(activations) cost.",
		Run: func(cfg RunConfig) *Table {
			return regimeLawTable(cfg, "A4", "jump-chain ablation", rls.Spec{},
				"acts ratio ≈ 1: the Poisson tally counts the skipped nulls faithfully; moves ratio ≈ 1: same jump chain")
		},
	})
}
