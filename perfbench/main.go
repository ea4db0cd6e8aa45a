// Command perfbench is the repository's benchmark. One run executes one
// workload for a fixed time, checks its outputs, prints every metric by
// name with its unit, and ends with one JSON line:
//
//	bash perfbench/run.sh --workload sweep-complete --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run, which also
// writes its spans to .bench_build/spans/. Workloads:
//
//   - sweep-complete: balancing runs on the complete topology (engines,
//     level index, rng);
//   - sweep-graph: balancing runs on regular graphs (graph index, hybrid
//     sampler, Fenwick trees, graph construction);
//   - serve-churn: the multi-tenant service over loopback HTTP (service,
//     Session churn, persist).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are one run's inputs.
type options struct {
	seed     uint64
	procs    int    // load goroutines and connections, and sharded P
	tiny     bool   // test sizes
	stateDir string // serve-churn snapshot directory
}

var workloads = []string{"sweep-complete", "sweep-graph", "serve-churn"}

// endToEnd are the metrics of an untraced run (BENCHMARK.json
// end_to_end). Every workload reports each of them:
//
//   - ops_per_s: balancing runs per second (sweeps), events applied per
//     second in the saturation phase (serve);
//   - latency_ms_p50: wall time of one round of the cell list (sweeps),
//     POST /events ack timed from when it was due (serve);
//   - ns_per_unit: wall ns per simulated unit of work, the geometric
//     mean over cells of the median per-run ns/activation (direct,
//     sharded) or ns/move (jump engines) (sweeps); the open loop's mean
//     enqueue-to-applied ns of a batch per event, from the service's
//     /metrics histogram (serve).
var endToEnd = []string{"setup_s", "max_rss_mb", "ops_per_s", "latency_ms_p50", "ns_per_unit"}

// perLayer are the metrics of a traced run (BENCHMARK.json per_layer).
var perLayer = []string{
	"sim.direct.ns_per_move", "sim.jump.ns_per_move", "sim.sharded.ns_per_move",
	"sim.graph-exact.ns_per_move", "sim.graph-hybrid.ns_per_move", "sim.direct.ns_per_activation",
	"sim.sharded.vs_best_seq", "sim.sharded.cores", "sim.sharded.cross_proposed",
	"sim.sharded.cross_applied", "sim.sharded.repartitions",
	"sim.moves", "sim.activations", "sim.direct.move_ratio",
	"loadvec.sample_ns", "loadvec.move_ns", "loadvec.add_ns", "loadvec.remove_ns",
	"rng.intn_ns", "rng.geometric_ns", "rng.erlang_ns",
	"fenwick.add_ns", "fenwick.find_ns",
	"graphs.build_ms", "graphs.neighbor_ns",
	"rls.session.add_ns", "rls.session.remove_ns", "rls.session.run_ns", "rls.session.run_moves",
	"persist.snapshot_ns_per_ball", "persist.resume_ns_per_ball", "persist.bytes_per_ball", "persist.checkpoint_ms",
	"service.create_ms", "service.restore_ms", "service.restart_s", "service.apply_mean_ms",
	"service.apply_ms_p50", "service.apply_ms_p99", "service.ack_ms_p99",
	"service.queue_depth_max", "service.generator_late_ms_p50", "service.generator_late_ms_p99",
	"service.accepted", "service.applied", "service.rejected", "service.apply_errors",
	"cell.endgame-jump.t_over_theorem1", "cell.endgame-direct.t_over_theorem1",
	"cell.dense-direct.t_over_theorem1", "cell.dense-jump.t_over_theorem1",
	"cell.dense-sharded.t_over_theorem1", "cell.torus.t_over_theorem1",
	"cell.expander.t_over_theorem1", "cell.random-16-regular.t_over_theorem1",
	"closure.sweep-complete.unexplained_share", "closure.sweep-graph.unexplained_share",
	"trace.overhead_share",
}

func main() {
	workload := flag.String("workload", "", "sweep-complete, sweep-graph or serve-churn")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 30, "measured seconds of the run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if !known(*workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep-complete|sweep-graph|serve-churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o := options{
		seed:     *seed,
		procs:    runtime.NumCPU(),
		stateDir: filepath.Join(".bench_build", fmt.Sprintf("state-%d", os.Getpid())),
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d cores=%d gomaxprocs=%d go=%s\n",
		*workload, o.seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	dur := time.Duration(*seconds) * time.Second

	rep := newReport()
	keys := endToEnd
	if *trace == 1 {
		tr := runTraced(*workload, o, dur, rep)
		keys = perLayer
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, o.seed))
		if err := tr.write(path); err != nil {
			rep.fail("write spans: %v", err)
		} else {
			fmt.Printf("# spans: %d written to %s\n", len(tr.spans), path)
		}
	} else {
		runWorkload(*workload, o, dur, nil, rep)
	}
	rep.set("max_rss_mb", maxRSSMB(), "MB")
	rep.set("error_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio")
	rep.printTable(os.Stdout)
	if err := rep.printResult(os.Stdout, keys); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// sweepRun is one sweep loop's cells and completed runs.
type sweepRun struct {
	cells []cell
	recs  []runRec
}

// runWorkload runs workload w for dur and puts its end-to-end metrics
// in rep. Sweeps return their runs for the per-layer analysis.
func runWorkload(w string, o options, dur time.Duration, tr *tracer, rep *report) sweepRun {
	tr.nextRun()
	if w == "serve-churn" {
		runServe(o, dur, tr, rep)
		return sweepRun{}
	}
	cells := completeCells(o)
	if w == "sweep-graph" {
		cells = graphCells(o)
	}
	rep.set("setup_s", sweepSetup(cells, o, 41), "s")
	l := runSweep(cells, o, dur, tr, rep)
	sweepMetrics(cells, l, rep)
	return sweepRun{cells: cells, recs: l.recs}
}

// runTraced is the traced run behind the per-layer metrics. It runs
// workload w untraced for a third of dur as the reference, the layer
// probes, then every workload traced for a third of dur each, so every
// per-layer metric is measured whichever workload is named. It reports
// the cost-model closure of each sweep and the tracing overhead of w.
func runTraced(w string, o options, dur time.Duration, rep *report) *tracer {
	tr := newTracer()
	ref := newReport()
	runWorkload(w, o, dur/3, nil, ref)
	rep.merge(ref, func(string) bool { return false })

	costs := probeLayers(o, tr, rep)
	var sweeps []sweepRun
	var traced *report
	for _, x := range workloads {
		xr := newReport()
		sr := runWorkload(x, o, dur/3, tr, xr)
		if sr.recs != nil {
			sweeps = append(sweeps, sr)
			rep.set("closure."+x+".unexplained_share", unexplainedShare(sr.cells, sr.recs, costs), "ratio")
		}
		if x == w {
			traced = xr
		}
		rep.merge(xr, func(n string) bool {
			return strings.HasPrefix(n, "cell.") || strings.HasPrefix(n, "service.") || strings.HasPrefix(n, "persist.")
		})
	}
	simLayerMetrics(o, sweeps, rep)
	if r, t := ref.metrics["ns_per_unit"].Value, traced.metrics["ns_per_unit"].Value; r > 0 {
		rep.set("trace.overhead_share", t/r-1, "ratio")
	}
	return tr
}
