// Command rlsfigs regenerates the paper's illustration figures (1–3) as
// ASCII renderings driven by the same code paths the tests verify, plus
// the reproduction's measurement figures (M1: balancing time vs n; M2: a
// discrepancy-vs-time trajectory with the three phases marked).
//
// Examples:
//
//	rlsfigs            # everything
//	rlsfigs -fig 1     # Figure 1 only
//	rlsfigs -fig M1
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	rls "repro"
	"repro/internal/asciiplot"
	"repro/internal/core"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/stats"
)

func main() {
	fig := flag.String("fig", "all", "which figure: 1|2|3|M1|M2|all")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.StringVar(&fromTrace, "fromtrace", "", "plot figure M2 from a trace archive (rlsim -traceout) instead of re-simulating")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"rlsfigs regenerates the paper's illustration figures (1-3) and the\n"+
				"reproduction's measurement figures (M1, M2) as ASCII renderings.\n\n"+
				"Usage: rlsfigs [flags]   (see cmd/README.md for the full tour)\n\n"+
				"Flags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	figs := map[string]func(uint64){
		"1":  figure1,
		"2":  figure2,
		"3":  figure3,
		"M1": figureM1,
		"M2": figureM2,
	}
	if *fig == "all" {
		for _, id := range []string{"1", "2", "3", "M1", "M2"} {
			figs[id](*seed)
			fmt.Println()
		}
		return
	}
	f, ok := figs[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "rlsfigs: unknown figure %q\n", *fig)
		os.Exit(1)
	}
	f(*seed)
}

// figure1 reproduces Figure 1: a staircase configuration with the move
// classification (RLS / neutral "both" / destructive) summarized per
// example pair.
func figure1(uint64) {
	v := loadvec.Vector{7, 6, 6, 5, 4, 4, 3, 2, 2, 2, 1, 1, 1, 1, 1, 0}
	asciiplot.Bars(os.Stdout, "Figure 1 — RLS moves versus destructive moves (staircase configuration)",
		v, v.Avg(), "average load ∅")
	fmt.Println()
	examples := []struct {
		src, dst int
	}{
		{0, 15}, // 7 → 0, big downhill: RLS only
		{0, 1},  // 7 → 6, off by one: neutral (both)
		{2, 3},  // 6 → 5, off by one: neutral (both)
		{1, 2},  // 6 → 6, equal loads: destructive
		{10, 0}, // 1 → 7, uphill: destructive
	}
	fmt.Println("example moves (src→dst: kind):")
	for _, e := range examples {
		fmt.Printf("  bin %2d (load %d) → bin %2d (load %d): %s\n",
			e.src+1, v[e.src], e.dst+1, v[e.dst], core.Classify(v, e.src, e.dst))
	}
	fmt.Println("rule (§4): protocol move iff ℓ_src ≥ ℓ_dst+1; destructive iff ℓ_src ≤ ℓ_dst+1;")
	fmt.Println("the overlap ℓ_src = ℓ_dst+1 is a neutral move (both).")
}

// figure2 reproduces Figure 2: the Lemma 2 coupling. It shows ℓ and the
// close configuration ℓ′ (one destructive move apart), performs coupled
// steps, and reports that closeness held.
func figure2(seed uint64) {
	l := loadvec.Vector{6, 5, 5, 4, 3, 3, 2, 2}.SortedDesc()
	lp, err := core.DestructiveMoveOnSorted(l, 6, 3) // iR=7th fullest → iL=4th
	if err != nil {
		panic(err)
	}
	asciiplot.Bars(os.Stdout, "Figure 2 — configuration ℓ = ℓ^(k)(t−1)", l, l.Avg(), "∅")
	fmt.Println()
	asciiplot.Bars(os.Stdout, "Figure 2 — configuration ℓ′ = ℓ^(k+1)(t−1) (one destructive move from ℓ)", lp, lp.Avg(), "∅")
	fmt.Println()
	r := rng.New(seed)
	const steps = 2000
	a, b, err := core.CoupledRun(l, lp, steps, r)
	if err != nil {
		fmt.Printf("COUPLING VIOLATION: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("coupled both processes for %d steps: closeness held at every step;\n", steps)
	fmt.Printf("final disc(ℓ)=%.2f ≤ disc(ℓ′)=%.2f  (Lemma 2's majorization)\n", a.Disc(), b.Disc())
}

// figure3 reproduces Figure 3: the Lemma 13 reshaping — an x-balanced
// configuration reordered into the half-spread worst case, with moves
// only heavy→light.
func figure3(seed uint64) {
	n, x := 16, 2
	avg := 4
	m := n * avg
	r := rng.New(seed)
	// An arbitrary x-balanced configuration.
	arbitrary := loadvec.Vector{6, 5, 4, 4, 3, 2, 4, 5, 3, 4, 4, 6, 2, 4, 5, 3}
	asciiplot.Bars(os.Stdout, "Figure 3 (left) — an x-balanced configuration (x=2)", arbitrary, float64(avg), "∅")
	fmt.Println()
	reshaped := loadvec.HalfSpread(x).Generate(n, m, r)
	asciiplot.Bars(os.Stdout, "Figure 3 (right) — reshaped by destructive moves: heavy half at ∅+x, light half at ∅−x",
		reshaped, float64(avg), "∅")
	fmt.Printf("\nLemma 13: after one epoch of length ln((∅+x)/(∅−x)) = %.3f the\n",
		core.Lemma13EpochLength(float64(avg), float64(x)))
	fmt.Printf("discrepancy drops to ≤ 2√(x·ln n) = %.2f w.h.p. (ignoring light-bin moves,\n",
		core.Lemma13Shrink(float64(x), n))
	fmt.Println("heavy↔heavy moves, and making heavy→light moves unconditional — all via Lemma 2).")
}

// figureM1 plots the measurement headline: mean balancing time vs n for
// two regimes, against the Theorem 1 predictor.
func figureM1(seed uint64) {
	fmt.Println("Figure M1 — measured E[T] vs n (log-log), worst-case start")
	const reps = 10
	for _, regime := range []struct {
		name string
		m    func(int) int
	}{
		{"m = n", func(n int) int { return n }},
		{"m = n·ln n", func(n int) int { return n * int(math.Ceil(math.Log(float64(n)))) }},
	} {
		ns := []int{32, 64, 128, 256, 512}
		xs := make([]float64, 0, len(ns))
		ys := make([]float64, 0, len(ns))
		for _, n := range ns {
			m := regime.m(n)
			var s stats.Summary
			for i := 0; i < reps; i++ {
				res, err := rls.New(n, m, rls.WithSeed(seed+uint64(1000*n+i))).Run()
				if err != nil {
					panic(err)
				}
				s.Add(res.Time)
			}
			xs = append(xs, float64(n))
			ys = append(ys, s.Mean())
		}
		fmt.Printf("\nregime %s: measured mean T (predictor ln n + n²/m in brackets)\n", regime.name)
		for i, n := range ns {
			fmt.Printf("  n=%-5d E[T]=%-8.3f [%.3f]\n", n, ys[i], rls.ExpectedBalanceTime(n, regime.m(n)))
		}
		asciiplot.Series(os.Stdout, "measured E[T] vs n", xs, ys, 48, 10, true, true)
	}
}

// fromTrace, when set by -fromtrace, redirects figure M2 onto a
// recorded trace archive instead of a fresh simulation.
var fromTrace string

// figureM2 plots one trajectory's discrepancy over time with the phase
// boundaries marked. With -fromtrace it replots a recorded archive —
// the trajectory that actually ran — rather than re-simulating.
func figureM2(seed uint64) {
	if fromTrace != "" {
		figureM2FromTrace(fromTrace)
		return
	}
	fmt.Println("Figure M2 — disc(ℓ(t)) along one run (n=64, m=2048, worst-case start)")
	res, trace, err := rls.New(64, 2048, rls.WithSeed(seed)).RunTraced(200)
	if err != nil {
		panic(err)
	}
	xs := make([]float64, len(trace))
	ys := make([]float64, len(trace))
	for i, p := range trace {
		xs[i] = p.Time + 1e-3 // avoid log(0)
		ys[i] = p.Disc + 1e-3
	}
	asciiplot.Series(os.Stdout, "disc vs time (log-log)", xs, ys, 60, 12, true, true)
	fmt.Printf("phase crossings: disc≤96·ln n at t=%.3f; disc≤1 at t=%.3f; perfect at t=%.3f\n",
		res.Phases.LogBalanced, res.Phases.OneBalanced, res.Phases.Perfect)
	fmt.Printf("total: time=%.3f activations=%d moves=%d\n", res.Time, res.Activations, res.Moves)
}

// figureM2FromTrace renders the M2 trajectory from a recorded trace
// archive (rlsim -traceout): the points are the run's own samples, no
// re-simulation involved.
func figureM2FromTrace(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlsfigs: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	tr, err := rls.OpenTrace(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlsfigs: %s: %v\n", path, err)
		os.Exit(1)
	}
	meta := tr.Meta()
	fmt.Printf("Figure M2 — disc(ℓ(t)) from trace archive %s (n=%d, engine=%s, topology=%s)\n",
		path, meta.Bins, meta.Mode, meta.Topology)
	var xs, ys []float64
	var last *rls.TraceRecord
	for {
		item, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rlsfigs: %s: %v\n", path, err)
			os.Exit(1)
		}
		if item.Record == nil {
			continue // embedded snapshot seek point
		}
		xs = append(xs, item.Record.Time+1e-3)
		ys = append(ys, item.Record.Disc+1e-3)
		last = item.Record
	}
	if last == nil {
		fmt.Fprintf(os.Stderr, "rlsfigs: %s holds no records\n", path)
		os.Exit(1)
	}
	asciiplot.Series(os.Stdout, "disc vs time (log-log)", xs, ys, 60, 12, true, true)
	fmt.Printf("total: time=%.3f activations=%d moves=%d balls=%d final-disc=%.3f\n",
		last.Time, last.Activations, last.Moves, last.Balls, last.Disc)
}
