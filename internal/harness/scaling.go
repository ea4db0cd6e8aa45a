package harness

import (
	"fmt"
	"runtime"
	"time"

	rls "repro"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

// The scaling study: wall-clock speedup-vs-P curves for the sharded
// engine against the sequential engines it must beat. Two workloads
// bracket the regimes:
//
//   - dense: n = m from a one-choice start over a fixed time horizon with
//     coarse explicit epochs — every bin busy, a large share of
//     activations productive, barriers amortized. The regime where
//     parallel shards should approach linear speedup.
//   - endgame: UntilPerfect from a one-choice start at m = 4n — dominated
//     by the sparse tail where the jump engine skips null blocks. The
//     regime where sequential jump is expected to win.
//
// Churn is not a cell: sessions run only the sequential engines, whose
// churn BenchmarkSessionChurn times.
//
// Every (workload, engine, P) cell is timed as best-of-Reps full passes
// (construction excluded, Run only). Each cell reports two ratios:
// speedup, the sharded engine's P = 1 time over the cell's time ("does
// adding shards help"), and vs best seq, min(direct, jump) time over the
// cell's time ("does the parallel engine beat the best sequential one" —
// the question that decides whether it earns its code). Both depend on
// hardware parallelism: interpret them against the recorded NumCPU and
// GOMAXPROCS (a P = 4 sweep on a 1-core box measures scheduling overhead,
// not scaling).

// ScalingPoint is one cell of the scaling study.
type ScalingPoint struct {
	Workload  string  // dense | endgame
	Engine    string  // direct | jump | sharded
	P         int     // shard count (1 for the sequential baselines)
	NsPerOp   float64 // best-of-reps wall time for one workload pass
	Speedup   float64 // same engine's P=1 time / this cell's time
	VsBestSeq float64 // min(direct, jump) time / this cell's time
}

// Name returns the cell's benchmark-style identifier as recorded in the
// BENCH json files, e.g. "ScalingDense/sharded/P4" or
// "ScalingEndgame/jump".
func (pt ScalingPoint) Name() string {
	base := "Scaling" + map[string]string{
		"dense":   "Dense",
		"endgame": "Endgame",
	}[pt.Workload]
	if pt.Engine == "direct" || pt.Engine == "jump" {
		return fmt.Sprintf("%s/%s", base, pt.Engine)
	}
	return fmt.Sprintf("%s/%s/P%d", base, pt.Engine, pt.P)
}

// ScalingConfig parameterizes RunScaling.
type ScalingConfig struct {
	// N is the dense workload's bin count (= ball count); the endgame
	// workload derives a smaller system from it (it does far more
	// sequential work per bin). Defaults to 1<<15.
	N int
	// Reps is the timing repetitions per cell (best-of). Defaults to 3.
	Reps int
	// MaxP bounds the shard sweep: P runs over the powers of two up to
	// MaxP, plus MaxP itself. Defaults to GOMAXPROCS.
	MaxP int
	// Seed fixes every workload's initial vectors and engine streams, so
	// two invocations time identical work.
	Seed uint64
}

func (c ScalingConfig) withDefaults() ScalingConfig {
	if c.N <= 0 {
		c.N = 1 << 15
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.MaxP <= 0 {
		c.MaxP = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// sweepP returns the shard counts of the study: powers of two up to MaxP,
// plus MaxP itself when it is not a power of two.
func sweepP(maxP int) []int {
	var ps []int
	for p := 1; p <= maxP; p *= 2 {
		ps = append(ps, p)
	}
	if last := ps[len(ps)-1]; last != maxP {
		ps = append(ps, maxP)
	}
	return ps
}

// scalingWorkload runs one full pass of a workload on one engine variant
// and must do identical simulated work for every (engine, P) at a fixed
// seed — only wall-clock may differ. The run function receives a fresh
// engine per rep.
type scalingWorkload struct {
	name string
	// run executes one timed pass for the given engine ("direct", "jump",
	// "sharded") at shard count p.
	run func(engine string, p int, seed uint64)
}

func buildWorkloads(cfg ScalingConfig) []scalingWorkload {
	dense := scalingWorkload{name: "dense"}
	dense.run = func(engine string, p int, seed uint64) {
		const horizon, epoch = 2.0, 0.125
		r := rng.New(seed)
		v := loadvec.OneChoice().Generate(cfg.N, cfg.N, r)
		switch engine {
		case "direct":
			build(rls.Spec{}, v, r).Run(sim.UntilTime(horizon), 0)
		case "sharded":
			s := sim.NewSharded(v, p, epoch, r)
			s.Run(sim.ShardedUntilTime(horizon), 0)
		case "jump":
			e := build(rls.Spec{Mode: rls.JumpEngine}, v, r)
			e.SetHorizon(horizon)
			e.Run(sim.UntilTime(horizon), 0)
		}
	}

	// Endgame: smaller n — UntilPerfect's sparse tail costs many sequential
	// jump steps per bin.
	en := cfg.N / 8
	if en < 512 {
		en = 512
	}
	endgame := scalingWorkload{name: "endgame"}
	endgame.run = func(engine string, p int, seed uint64) {
		r := rng.New(seed)
		v := loadvec.OneChoice().Generate(en, 4*en, r)
		switch engine {
		case "direct":
			build(rls.Spec{}, v, r).Run(sim.UntilPerfect(), 0)
		case "jump":
			build(rls.Spec{Mode: rls.JumpEngine}, v, r).Run(sim.UntilPerfect(), 0)
		case "sharded":
			s := sim.NewSharded(v, p, 0, r)
			s.Run(sim.ShardedUntilPerfect(), 0)
		}
	}

	return []scalingWorkload{dense, endgame}
}

// RunScaling executes the scaling study and returns its cells in a stable
// order (workload, then direct, jump, and sharded by P). Timing is wall-clock
// best-of-Reps; everything else about each cell is deterministic in
// cfg.Seed.
func RunScaling(cfg ScalingConfig) []ScalingPoint {
	cfg = cfg.withDefaults()
	ps := sweepP(cfg.MaxP)
	var out []ScalingPoint

	timeCell := func(w scalingWorkload, engine string, p int) float64 {
		best := 0.0
		for rep := 0; rep < cfg.Reps; rep++ {
			start := time.Now()
			w.run(engine, p, cfg.Seed+uint64(rep))
			if d := float64(time.Since(start).Nanoseconds()); rep == 0 || d < best {
				best = d
			}
		}
		return best
	}

	for _, w := range buildWorkloads(cfg) {
		direct := timeCell(w, "direct", 1)
		jump := timeCell(w, "jump", 1)
		best := min(direct, jump)
		for _, seq := range []struct {
			engine string
			ns     float64
		}{{"direct", direct}, {"jump", jump}} {
			out = append(out, ScalingPoint{
				Workload: w.name, Engine: seq.engine, P: 1,
				NsPerOp: seq.ns, Speedup: 1, VsBestSeq: best / seq.ns,
			})
		}
		var p1 float64
		for _, p := range ps {
			ns := timeCell(w, "sharded", p)
			if p == 1 {
				p1 = ns
			}
			out = append(out, ScalingPoint{
				Workload: w.name, Engine: "sharded", P: p,
				NsPerOp: ns, Speedup: p1 / ns, VsBestSeq: best / ns,
			})
		}
	}
	return out
}

// ScalingTable renders the study as a harness table for the text output.
func ScalingTable(points []ScalingPoint, cfg ScalingConfig) *Table {
	cfg = cfg.withDefaults()
	cores := runtime.NumCPU()
	tb := NewTable("SCALE", "speedup vs shard count P",
		"workload", "engine", "P", "ms/op", "speedup", "vs best seq", "cores")
	for _, pt := range points {
		tb.Addf(pt.Workload, pt.Engine, pt.P, pt.NsPerOp/1e6,
			fmt.Sprintf("%.2fx", pt.Speedup), fmt.Sprintf("%.2fx", pt.VsBestSeq), cores)
	}
	tb.Note("N=%d reps=%d seed=%d; NumCPU=%d GOMAXPROCS=%d — speedup is same-engine P=1 time over the cell's time; vs best seq is min(direct, jump) time over the cell's time",
		cfg.N, cfg.Reps, cfg.Seed, cores, runtime.GOMAXPROCS(0))
	tb.Note("P > NumCPU measures scheduling overhead, not scaling; record curves on multi-core hosts")
	return tb
}
