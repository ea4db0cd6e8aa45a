// Command rlsim runs a single RLS simulation and prints a summary, an
// optional trajectory, and an ASCII rendering of the final configuration.
//
// Examples:
//
//	rlsim -n 64 -m 640
//	rlsim -n 64 -m 640 -placement random -trace 500
//	rlsim -n 64 -m 512 -topology ring
//	rlsim -n 16 -m 160 -speeds bimodal
//	rlsim -n 32 -m 320 -strict -target disc=2
//	rlsim -n 4096 -m 4096 -engine jump
//	rlsim -n 4096 -m 4096 -engine jump -strict
//	rlsim -n 4096 -m 4096 -engine jump -topology torus
//	rlsim -n 4096 -m 8192 -engine jump -topology expander
//	rlsim -n 4096 -m 16384 -engine jump -topology random-16-regular
//	rlsim -n 65536 -m 65536 -placement random -engine sharded -shards 4 -target time=8
//	rlsim -n 4096 -m 4096 -engine jump -cpuprofile cpu.pprof
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	rls "repro"
	"repro/internal/asciiplot"
	"repro/internal/hetero"
)

func main() {
	var (
		n         = flag.Int("n", 32, "number of bins")
		m         = flag.Int("m", 320, "number of balls")
		seed      = flag.Uint64("seed", 1, "random seed")
		placement = flag.String("placement", "all-in-one", "initial placement: all-in-one|random|two-choice|spread|delta-pair")
		target    = flag.String("target", "perfect", "stop target: perfect | disc=X | time=X")
		topology  = flag.String("topology", "complete", "topology: complete|ring|torus|hypercube|expander|random-<d>-regular")
		speeds    = flag.String("speeds", "", "bin speed profile: uniform|bimodal|powerlaw (empty = unit speeds)")
		strict    = flag.Bool("strict", false, "use the strict (>) tie rule of [12]/[11]")
		engine    = flag.String("engine", "direct", "engine mode: direct (per-activation) | jump (rejection-free) | sharded (parallel, dense regime; not with -resume/-snapshot/-traceout)")
		shards    = flag.Int("shards", 0, "sharded engine worker count P (0 = default); only with -engine sharded")
		trace     = flag.Int64("trace", 0, "print a trace point every K activations (0 = off)")
		plot      = flag.Bool("plot", true, "render initial/final configurations as ASCII bars")
		csv       = flag.Bool("csv", false, "emit the trace as CSV instead of a table (implies -trace)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprof   = flag.String("memprofile", "", "write a heap profile after the run to this file (go tool pprof)")

		sf sessionFlags
	)
	flag.StringVar(&sf.resume, "resume", "", "resume from a snapshot file instead of starting fresh (-n/-m/-seed/engine flags then come from the artifact)")
	flag.StringVar(&sf.snapshot, "snapshot", "", "write a snapshot of the final state to this file")
	flag.StringVar(&sf.traceout, "traceout", "", "stream a binary trace archive of the run to this file (decode with rlsdump)")
	flag.IntVar(&sf.snapEvery, "snapevery", 0, "embed a full snapshot every K trace records in -traceout (0 = initial only)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"rlsim runs one RLS simulation and prints a summary, an optional\n"+
				"trajectory, and an ASCII rendering of the configurations.\n\n"+
				"Usage: rlsim [flags]   (see cmd/README.md for the full tour)\n\n"+
				"Flags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *csv && *trace <= 0 {
		*trace = 100
	}
	err := withProfiles(*cpuprof, *memprof, func() error {
		if sf.active() {
			return runSession(sf, *n, *m, *seed, *placement, *target, *topology, *speeds, *engine, *shards, *strict, *trace, *csv)
		}
		return run(*n, *m, *seed, *placement, *target, *topology, *speeds, *engine, *shards, *strict, *trace, *plot && !*csv, *csv)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlsim: %v\n", err)
		os.Exit(1)
	}
}

// withProfiles wraps f with optional pprof collection: the CPU profile
// covers exactly the run, and the heap profile snapshots live allocations
// after it (post-GC, so the engine's retained structures dominate, not
// garbage). Profiles are flushed before this returns — os.Exit in main
// happens after — so hot-loop work can be profiled without editing code:
//
//	go tool pprof cpu.pprof
func withProfiles(cpuprof, memprof string, f func() error) error {
	if cpuprof != "" {
		cf, err := os.Create(cpuprof)
		if err != nil {
			return err
		}
		defer cf.Close()
		if err := pprof.StartCPUProfile(cf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := f(); err != nil {
		return err
	}
	if memprof != "" {
		mf, err := os.Create(memprof)
		if err != nil {
			return err
		}
		defer mf.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			return err
		}
	}
	return nil
}

// specFromFlags decodes the engine, shard, tie-rule, topology, and speed
// flags into an rls.Spec; run and runSession share it, and the library
// decides which combinations are legal. The torus and hypercube take
// their shape from n; "random-<d>-regular" builds its adjacency from the
// run seed, so a fixed (seed, n, d) triple reproduces the same graph.
func specFromFlags(n int, seed uint64, engine string, shards int, strict bool, topology, speeds string) (rls.Spec, error) {
	spec := rls.Spec{Shards: shards, Strict: strict}
	switch engine {
	case "direct":
	case "jump":
		spec.Mode = rls.JumpEngine
	case "sharded":
		spec.Mode = rls.ShardedEngine
	case "shardedjump":
		return spec, errRemovedEngine
	default:
		return spec, fmt.Errorf("unknown engine mode %q", engine)
	}
	topo, err := rls.NamedTopology(topology, n, seed)
	if err != nil {
		return spec, err
	}
	spec.Topology = topo
	switch speeds {
	case "":
	case "uniform":
		spec.Speeds = hetero.UniformSpeeds(n)
	case "bimodal":
		spec.Speeds = hetero.BimodalSpeeds(n, 4, 0.25)
	case "powerlaw":
		spec.Speeds = hetero.PowerLawSpeeds(n, 0.5)
	default:
		return spec, fmt.Errorf("unknown speed profile %q", speeds)
	}
	return spec, nil
}

// checkSize rejects a fresh run's bin and ball counts below one, which
// the library constructors would panic on.
func checkSize(n, m int) error {
	if n < 1 || m < 1 {
		return fmt.Errorf("-n and -m must be at least 1 (got -n %d -m %d)", n, m)
	}
	return nil
}

// errRemovedEngine answers -engine shardedjump, a mode that no longer
// exists.
var errRemovedEngine = errors.New("engine mode shardedjump was removed; use -engine sharded for dense workloads or -engine jump for end-games")

func run(n, m int, seed uint64, placement, target, topology, speeds, engine string, shards int, strict bool, trace int64, plot, csv bool) error {
	if err := checkSize(n, m); err != nil {
		return err
	}
	spec, err := specFromFlags(n, seed, engine, shards, strict, topology, speeds)
	if err != nil {
		return err
	}
	if err := spec.Validate(n); err != nil {
		return err
	}
	opts := []rls.Option{rls.WithSeed(seed), rls.WithEngineMode(spec.Mode), rls.WithShards(spec.Shards),
		rls.WithTopology(spec.Topology), rls.WithSpeeds(spec.Speeds)}
	if spec.Strict {
		opts = append(opts, rls.WithStrictTieRule())
	}

	switch placement {
	case "all-in-one":
		opts = append(opts, rls.WithPlacement(rls.AllInOne()))
	case "random":
		opts = append(opts, rls.WithPlacement(rls.Random()))
	case "two-choice":
		opts = append(opts, rls.WithPlacement(rls.TwoChoice()))
	case "spread":
		opts = append(opts, rls.WithPlacement(rls.Spread()))
	case "delta-pair":
		opts = append(opts, rls.WithPlacement(rls.DeltaPair(1)))
	default:
		return fmt.Errorf("unknown placement %q", placement)
	}

	switch {
	case target == "perfect":
		opts = append(opts, rls.WithTarget(rls.UntilPerfect()))
	case strings.HasPrefix(target, "disc="):
		x, err := strconv.ParseFloat(strings.TrimPrefix(target, "disc="), 64)
		if err != nil {
			return fmt.Errorf("bad target %q: %v", target, err)
		}
		opts = append(opts, rls.WithTarget(rls.UntilBalanced(x)))
	case strings.HasPrefix(target, "time="):
		x, err := strconv.ParseFloat(strings.TrimPrefix(target, "time="), 64)
		if err != nil {
			return fmt.Errorf("bad target %q: %v", target, err)
		}
		opts = append(opts, rls.WithTarget(rls.UntilTime(x)))
	default:
		return fmt.Errorf("unknown target %q", target)
	}

	runner := rls.New(n, m, opts...)
	if !csv {
		fmt.Printf("RLS: n=%d m=%d ∅=%.2f placement=%s target=%s topology=%s seed=%d\n",
			n, m, float64(m)/float64(n), placement, target, topology, seed)
		fmt.Printf("Theorem 1 predictor ln(n)+n²/m = %.3f, w.h.p. shape = %.3f\n",
			rls.ExpectedBalanceTime(n, m), rls.WHPBalanceTime(n, m))
	}

	if trace > 0 {
		res, tr, err := runner.RunTraced(trace)
		if err != nil {
			return err
		}
		if csv {
			fmt.Println("time,activations,disc,min_load,max_load")
			for _, p := range tr {
				fmt.Printf("%g,%d,%g,%d,%d\n", p.Time, p.Activations, p.Disc, p.MinLoad, p.MaxLoad)
			}
			return nil
		}
		fmt.Printf("%-12s %-12s %-10s %-6s %-6s\n", "time", "activations", "disc", "min", "max")
		for _, p := range tr {
			fmt.Printf("%-12.4f %-12d %-10.3f %-6d %-6d\n", p.Time, p.Activations, p.Disc, p.MinLoad, p.MaxLoad)
		}
		report(res, plot)
		return nil
	}
	res, err := runner.Run()
	if err != nil {
		return err
	}
	report(res, plot)
	return nil
}

func report(res rls.Result, plot bool) {
	fmt.Printf("\nreached=%v time=%.4f activations=%d moves=%d final-disc=%.3f\n",
		res.Reached, res.Time, res.Activations, res.Moves, res.Disc)
	fmt.Printf("phase crossings: log-balanced=%.4f 1-balanced=%.4f perfect=%.4f\n",
		res.Phases.LogBalanced, res.Phases.OneBalanced, res.Phases.Perfect)
	if plot && len(res.Final) <= 72 {
		sum := 0
		for _, l := range res.Final {
			sum += l
		}
		avg := float64(sum) / float64(len(res.Final))
		fmt.Println()
		asciiplot.Bars(os.Stdout, "final configuration", res.Final, avg, "average load")
	}
}
