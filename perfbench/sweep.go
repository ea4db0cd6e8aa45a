package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	rls "repro"
)

// noBudget lifts the default activation cap: an n = m = 16384 end-game
// needs ~3·10⁸ activations on average, and its tail would hit the
// library's 10⁹ default on a few percent of seeds.
const noBudget = math.MaxInt64 / 4

// cell is one (problem, engine) pair that a sweep runs from AllInOne to
// perfect balance. engine names the sim layer the cell exercises.
type cell struct {
	name   string
	engine string // direct, jump, sharded, graph-exact, graph-hybrid
	n, m   int
	deg    int // graph degree; 0 on the complete topology
	opts   func(seed uint64) []rls.Option
}

func (c cell) runner(seed uint64, extra ...rls.Option) *rls.Runner {
	opts := append(c.opts(seed), rls.WithSeed(seed), rls.WithTarget(rls.UntilPerfect()), rls.WithPlacement(rls.AllInOne()))
	return rls.New(c.n, c.m, append(opts, extra...)...)
}

func mode(m rls.EngineMode, more ...rls.Option) func(uint64) []rls.Option {
	return func(uint64) []rls.Option { return append([]rls.Option{rls.WithEngineMode(m)}, more...) }
}

// completeCells is the sweep-complete list. Theorem 1 bounds E[T] by
// O(ln n + n²/m): the n = m end-games measure the n²/m term (jump, the
// engine built for it, at n = 16384, and the default direct engine at a
// size it finishes in tens of ms), the dense m = 64n cell the ln n term
// on every complete-topology engine that could win there — direct, jump
// and sharded with one shard per core — so sharded meets the best
// sequential engine on one problem.
func completeCells(o options) []cell {
	big, small, dense := 16384, 1024, 1024
	if o.tiny {
		big, small, dense = 256, 64, 64
	}
	return []cell{
		{name: "endgame-jump", engine: "jump", n: big, m: big, opts: mode(rls.JumpEngine)},
		{name: "endgame-direct", engine: "direct", n: small, m: small, opts: mode(rls.DirectEngine)},
		{name: "dense-direct", engine: "direct", n: dense, m: 64 * dense, opts: mode(rls.DirectEngine)},
		{name: "dense-jump", engine: "jump", n: dense, m: 64 * dense, opts: mode(rls.JumpEngine)},
		{name: "dense-sharded", engine: "sharded", n: dense, m: 64 * dense, opts: mode(rls.ShardedEngine, rls.WithShards(o.procs))},
	}
}

// graphCells is the sweep-graph list: the jump engine on regular
// topologies, where the graph index, the hybrid sampler, Fenwick trees
// and graph construction do the work. The torus and expander keep the
// exact admissible index (degree 4 and 8); random-16-regular is above
// the auto threshold, so it runs the rejection hybrid, and Runner.Run
// rebuilds its graph on every run.
func graphCells(o options) []cell {
	side, exp, rr := 32, 4096, 4096
	if o.tiny {
		side, exp, rr = 8, 256, 256
	}
	return []cell{
		{name: "torus", engine: "graph-exact", n: side * side, m: side * side, deg: 4,
			opts: mode(rls.JumpEngine, rls.WithTopology(rls.TorusTopology(side)))},
		{name: "expander", engine: "graph-exact", n: exp, m: exp, deg: 8,
			opts: mode(rls.JumpEngine, rls.WithTopology(rls.ExpanderTopology()))},
		{name: "random-16-regular", engine: "graph-hybrid", n: rr, m: 4 * rr, deg: 16,
			opts: func(seed uint64) []rls.Option {
				return []rls.Option{rls.WithEngineMode(rls.JumpEngine), rls.WithTopology(rls.RandomRegularTopology(16, seed^0x9e3779b97f4a7c15))}
			}},
	}
}

// cellSeed derives the seed of one (round, cell) entry of the run list.
func cellSeed(seed uint64, round, ci int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(round)<<20 + uint64(ci) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// runRec is one completed balancing run.
type runRec struct {
	round, cell int
	wall        time.Duration
	moves, acts int64
	t           float64
}

// checkRun verifies one run's output: the target was reached and the
// final vector is perfect with all m balls conserved.
func checkRun(c cell, res rls.Result, err error) error {
	if err != nil {
		return err
	}
	if !res.Reached {
		return fmt.Errorf("%s: target not reached", c.name)
	}
	if len(res.Final) != c.n || !rls.IsPerfect(res.Final) {
		return fmt.Errorf("%s: final vector is not perfect", c.name)
	}
	sum := 0
	for _, l := range res.Final {
		sum += l
	}
	if sum != c.m {
		return fmt.Errorf("%s: %d balls at the end, want %d", c.name, sum, c.m)
	}
	return nil
}

// sweepLoop is what one sweep loop measured: every completed run, the
// wall time of each round of the cell list, and the loop's length.
type sweepLoop struct {
	recs    []runRec
	rounds  []float64 // ms
	elapsed time.Duration
}

// runSweep is the closed loop: one goroutine runs the (cell, seed) list
// round by round until dur has passed, then re-runs round 0 to check
// that moves, activations and T repeat exactly for a fixed seed.
func runSweep(cells []cell, o options, dur time.Duration, tr *tracer, rep *report) sweepLoop {
	var recs []runRec
	var rounds []float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < dur; round++ {
		r0 := time.Now()
		rs := tr.begin("sweep.round", -1)
		for ci, c := range cells {
			seed := cellSeed(o.seed, round, ci)
			// Collect the previous run's garbage outside the timed window, so
			// each run starts from the same heap and the peak RSS does not
			// depend on where the collector's cycles happened to fall.
			runtime.GC()
			t0 := time.Now()
			res, err := c.runner(seed, rls.WithActivationBudget(noBudget)).Run()
			wall := time.Since(t0)
			tr.record("sim."+c.engine+".run", rs, t0, t0.Add(wall), res.Moves)
			rep.attempted++
			if err := checkRun(c, res, err); err != nil {
				rep.fail("%v (seed %d)", err, seed)
				continue
			}
			recs = append(recs, runRec{round: round, cell: ci, wall: wall, moves: res.Moves, acts: res.Activations, t: res.Time})
		}
		tr.end(rs, int64(len(cells)))
		rounds = append(rounds, float64(time.Since(r0))/1e6)
	}
	elapsed := time.Since(start)
	for ci, c := range cells {
		first := -1
		for i, r := range recs {
			if r.round == 0 && r.cell == ci {
				first = i
				break
			}
		}
		if first < 0 {
			continue
		}
		rep.attempted++
		runtime.GC()
		res, err := c.runner(cellSeed(o.seed, 0, ci), rls.WithActivationBudget(noBudget)).Run()
		if err != nil || res.Moves != recs[first].moves || res.Activations != recs[first].acts || res.Time != recs[first].t {
			rep.fail("%s: a fixed seed did not repeat (moves %d vs %d, activations %d vs %d)",
				c.name, res.Moves, recs[first].moves, res.Activations, recs[first].acts)
		}
	}
	return sweepLoop{recs: recs, rounds: rounds, elapsed: elapsed}
}

// cellTotal is one cell's summed wall time, moves and activations.
type cellTotal struct {
	wall        time.Duration
	moves, acts int64
	runs        int
	tSum        float64
}

func totalsByCell(cells []cell, recs []runRec) []cellTotal {
	out := make([]cellTotal, len(cells))
	for _, r := range recs {
		t := &out[r.cell]
		t.wall += r.wall
		t.moves += r.moves
		t.acts += r.acts
		t.runs++
		t.tSum += r.t
	}
	return out
}

// unitNs is a run's cost per unit of the work its engine simulates:
// per activation for the per-activation engines (direct, sharded), whose
// wall time follows the activation count, and per move for the jump
// engines, whose wall time follows the move count. Either way the random
// balancing time T does not pass for speed.
func unitNs(c cell, r runRec) float64 {
	if c.engine == "direct" || c.engine == "sharded" {
		return float64(r.wall) / float64(r.acts)
	}
	return float64(r.wall) / float64(r.moves)
}

// sweepMetrics turns the loop's records into the end-to-end metrics.
// ns_per_unit is the geometric mean over cells of each cell's median
// per-run unit cost, so every cell weighs the same however many runs of
// it fit, and a burst of contention on the host that slows a few runs
// does not move it. The latency is that of one round, the whole cell
// list run once.
func sweepMetrics(cells []cell, l sweepLoop, rep *report) {
	recs := l.recs
	tot := totalsByCell(cells, recs)
	units := make([][]float64, len(cells))
	for _, r := range recs {
		units[r.cell] = append(units[r.cell], unitNs(cells[r.cell], r))
	}
	var perUnit, perMove, perAct []float64
	for ci, c := range cells {
		t := tot[ci]
		if t.runs == 0 || t.moves == 0 {
			continue
		}
		perUnit = append(perUnit, median(units[ci]))
		perMove = append(perMove, float64(t.wall)/float64(t.moves))
		perAct = append(perAct, float64(t.wall)/float64(t.acts))
		rep.set("cell."+c.name+".ns_per_move", perMove[len(perMove)-1], "ns")
		rep.set("cell."+c.name+".ns_per_activation", perAct[len(perAct)-1], "ns")
		rep.set("cell."+c.name+".runs", float64(t.runs), "count")
		rep.set("cell."+c.name+".t_over_theorem1", t.tSum/float64(t.runs)/rls.ExpectedBalanceTime(c.n, c.m), "ratio")
	}
	if len(recs) == 0 {
		return
	}
	rep.setAs("ops_per_s", "runs_per_s", float64(len(recs))/l.elapsed.Seconds(), "1/s")
	rep.set("latency_ms_p50", median(l.rounds), "ms")
	rep.set("rounds", float64(len(l.rounds)), "count")
	rep.set("ns_per_unit", geomean(perUnit), "ns")
	rep.set("ns_per_move", geomean(perMove), "ns")
	rep.set("ns_per_activation", geomean(perAct), "ns")
}

// sweepSetup times building every cell's engine — placement, level or
// graph index, random-regular graph — by a one-activation run, reps
// times, and reports the median.
func sweepSetup(cells []cell, o options, reps int) float64 {
	var ts []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		for ci, c := range cells {
			// A cell that cannot be built fails the checked runs of the loop.
			_, _ = c.runner(cellSeed(o.seed, i, ci), rls.WithActivationBudget(1)).Run()
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts)
}

// layerCosts are per-operation costs measured by the layer probes.
type layerCosts struct {
	intn, geometric, erlang float64 // rng
	sample, move            float64 // loadvec level index
	fenAdd, fenFind         float64 // fenwick at the graph cells' n
	neighbor, buildNs       float64 // graphs
}

// predictNs is the cost model: the wall time one run should take as
// Σ (layer ns × layer count). Counts come from the run's moves and
// activations and the cell's degree; costs the model does not name
// (the Exp draw and ball-list upkeep of direct runs, the hybrid's
// rejected flags, engine construction) stay unexplained.
func predictNs(c cell, r runRec, k layerCosts) float64 {
	mv, ac, d := float64(r.moves), float64(r.acts), float64(c.deg)
	switch c.engine {
	case "jump":
		return mv * (k.geometric + k.erlang + k.sample + k.move)
	case "direct", "sharded":
		return ac*2*k.intn + mv*k.move
	case "graph-exact":
		// Sample: one Fenwick find plus a Δ-slot scan. Update: the two
		// endpoints and their neighbours recount Δ slots each and update
		// their Fenwick leaves.
		return mv * (k.geometric + k.erlang + k.move + k.fenFind + (2*d*(d+1)+d)*k.neighbor + 2*(d+1)*k.fenAdd)
	case "graph-hybrid":
		return mv*(k.geometric+k.erlang+k.move+k.fenFind+(2*d+1)*k.neighbor+2*(d+1)*k.fenAdd) + k.buildNs
	}
	return 0
}

// unexplainedShare is the share of the loop's measured run time that
// the cost model leaves unexplained.
func unexplainedShare(cells []cell, recs []runRec, k layerCosts) float64 {
	var wall, pred float64
	for _, r := range recs {
		wall += float64(r.wall)
		pred += predictNs(cells[r.cell], r, k)
	}
	return 1 - pred/wall
}
