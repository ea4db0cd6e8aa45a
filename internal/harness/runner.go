// Package harness turns the paper's claims into runnable experiments: a
// parallel replication runner, an experiment registry with one entry per
// figure/claim (rlsweep -list prints the index), and plain-text/CSV table
// rendering. Every experiment is regenerated by cmd/rlsweep, and the root
// package's BenchmarkExperiment/<ID> runs each as a sub-benchmark.
//
// Every direct and jump engine a row runs is built from an rls.Spec
// (build, through Spec.Engine), so a row names its engine, tie rule,
// topology and speeds by Spec fields and is held to Spec.Validate;
// TestHarnessBuildsThroughSpec keeps it so. The jump-law ablations (A4,
// A7, A8) run each row's spec twice with only Mode flipped. Only the
// sharded engine (A5, the scaling study) is built by sim.NewSharded.
package harness

import (
	"fmt"
	"runtime"
	"sync"

	rls "repro"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

// replicate is the worker-pool core shared by Replicate, Replicate2 and
// DML's vector rows: it runs fn reps times with independent split RNG
// streams, in parallel across GOMAXPROCS workers, and returns the reps
// results in replication order. Splitting all streams from the root up front makes the output
// deterministic for a fixed seed regardless of parallelism.
func replicate[T any](seed uint64, reps int, fn func(r *rng.RNG) T) []T {
	root := rng.New(seed)
	streams := make([]*rng.RNG, reps)
	for i := range streams {
		streams[i] = root.Split()
	}
	out := make([]T, reps)
	workers := runtime.GOMAXPROCS(0)
	if workers > reps {
		workers = reps
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(streams[i])
			}
		}()
	}
	for i := 0; i < reps; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// Replicate runs fn reps times with independent split RNG streams, in
// parallel across GOMAXPROCS workers, and returns the reps results in
// replication order (deterministic for a fixed seed regardless of
// parallelism).
func Replicate(seed uint64, reps int, fn func(r *rng.RNG) float64) []float64 {
	return replicate(seed, reps, fn)
}

// Replicate2 is Replicate for experiments that produce two values per
// replication (e.g. a time and an activation count).
func Replicate2(seed uint64, reps int, fn func(r *rng.RNG) (float64, float64)) ([]float64, []float64) {
	type pair struct{ a, b float64 }
	ps := replicate(seed, reps, func(r *rng.RNG) pair {
		a, b := fn(r)
		return pair{a, b}
	})
	as := make([]float64, reps)
	bs := make([]float64, reps)
	for i, p := range ps {
		as[i], bs[i] = p.a, p.b
	}
	return as, bs
}

// build returns spec's engine over v, drawing from r. The experiments fix
// their specs, so an illegal one is a bug and panics.
func build(spec rls.Spec, v loadvec.Vector, r *rng.RNG) *sim.Engine {
	e, err := spec.Engine(v, r)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return e
}
