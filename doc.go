// Package rls is a Go reproduction of "Tight Load Balancing via Randomized
// Local Search" by Berenbrink, Kling, Liaw and Mehrabian (IPDPS 2017;
// arXiv:1706.09997).
//
// The paper analyzes the Randomized Local Search (RLS) protocol: n bins, m
// balls, each ball carrying an independent rate-1 exponential clock; when
// a ball's clock rings it samples a uniformly random bin and moves there
// iff the sampled bin holds strictly fewer balls. The paper's main result
// (Theorem 1) is that the expected time to perfect balance (discrepancy
// below 1) is Θ(ln n + n²/m) from any initial configuration.
//
// This package is the public API: construct a Runner with New, configure
// it with options (initial placement, tie rule, topology, bin speeds,
// stop target, engine choice), and Run it. Session is the long-running
// service core: it supports dynamic ball churn (joins and leaves) for
// self-stabilization scenarios, absorbing each event incrementally into
// one persistent engine — with the activation rate tracking the live
// population — instead of rebuilding O(m) state. Quantities from the
// paper's analysis (harmonic bounds, Theorem 1 predictors) are exposed as
// plain functions.
//
// # Engine modes
//
// Runs execute in one of three modes, selected with WithEngineMode (and
// Spec.Mode for sessions, which run the first two):
//
//   - DirectEngine (default) simulates every activation: an Exp(m) time
//     gap, a uniform ball, a uniform destination, the protocol's accept
//     test. Cost is O(1) per activation — but near balance almost every
//     activation is a rejected null move, so whole runs cost
//     O(activations) ≈ O(m·n/W) per move.
//   - JumpEngine simulates only the embedded jump chain of productive
//     moves, the object the paper's analysis is phrased over (Theorem 1,
//     Lemmas 15–16). A level index over the load histogram maintains the
//     total move weight W = Σ_v v·count[v]·C(v−1) in O(log Δ) per move
//     (a 16-ary prefix-sum tree over the per-level weights, one write per
//     tree level and an O(1) leaf read per update, beside an O(1)-update
//     prefix-count array C that also bounds each level's segment of one
//     level-sorted bin permutation, so a uniform bin of a level, or of
//     all levels ≤ v−1, is one slot read); each step advances time by
//     one Exp(W/n) gap to the next move and samples the productive
//     (src, dst) pair exactly. The null activations between moves form an independent
//     Poisson stream of rate m − W/n (thinning), so the engine only adds
//     up its mean and tallies it with one Poisson draw per run. Cost is
//     O(log Δ) per move, ~135–270 ns on perfbench's sweep-complete jump
//     cells (2 cores).
//     Two protocol variants ride the same machinery: the strict (>) tie
//     rule swaps in the shifted move weight W′ = Σ_v v·count[v]·C(v−2)
//     (same index, eligible destinations two levels down; gate A7), and
//     regular graph topologies run an exact per-source
//     admissible-neighbor count at every degree: it makes the eventful
//     probability W_G/(m·Δ_G), pair sampling descends a bin-indexed
//     16-ary prefix-sum tree (at most 16 sums scanned per tree level)
//     plus one neighborhood scan, and a move updates the index
//     incrementally — each changed bin is recounted, and each neighbor
//     whose one slot back at that bin flipped admissibility takes ±1 —
//     so a move costs O(Δ_G + flips·log_16 n): O(Δ_G) reads of a flat
//     slot table built once per engine, an O(1) leaf read per flip, and
//     one tree write per tree level per flip (three at n = 4096), with
//     no rejections (gate A8, on bounded-degree and dense families). The
//     graph index owns the move weight, so the configuration carries no
//     level index there until a session's first random departure builds
//     the plain one.
//   - ShardedEngine partitions the bins into WithShards contiguous
//     ranges, each simulated by its own goroutine worker with a private
//     configuration, sampler, and deterministically split RNG stream —
//     the m per-ball Poisson clocks superpose into independent per-shard
//     streams, so shards advance the same continuous-time process
//     concurrently. Workers draw activations in batches (one Poisson
//     count per epoch, destinations and ball ids filled into flat
//     scratch arrays) so the steady-state epoch loop allocates nothing.
//     Local moves apply immediately; cross-shard moves append to
//     per-shard outbox slices, pre-filtered against a stale load
//     snapshot, and drain at epoch barriers in deterministic parallel
//     phases that re-check the RLS rule against live loads. A per-barrier
//     reconciliation folds the shard histograms into the global min/max/
//     discrepancy view serving the stop conditions. It is the dense-regime
//     tool: in the end-game JumpEngine, which skips the null activations
//     the shards would simulate one by one, is faster at any P. It is a
//     Runner-only mode: sessions, and so rlsd and the snapshot codec, run
//     the sequential engines, which the open-system churn is modeled on.
//
// Direct and jump induce the identical law on every quantity observed at
// moves — balancing times, phase-crossing times, move counts, final
// configurations, and the activation counter (experiments A4/A7/A8
// KS-test the balancing-time distributions for the plain, strict, and
// graph variants; run `go test -bench ExpA4`). They are not
// byte-identical streams: the jump engine draws different random numbers.
// The only observable difference is granularity between moves: direct
// runs can trace or stop at any activation, jump runs only at moves. A
// jump run's activation count is exact in law at the end of every run
// (Runner run or Session run); mid-run it reads the moves plus the
// integer part of the untallied null mass, so activation targets and
// trace points fire at the first move on or past them, and time targets
// may overshoot by one gap.
//
// The sharded engine's law matches the sequential process up to its
// epoch granularity: cross-shard moves land at barriers rather than
// mid-epoch, so stop conditions, traces, and the phase times coarsen to
// epochs (WithShardEpoch tunes the fidelity/throughput trade-off), and
// experiment A5 KS-validates the balancing-time law against
// DirectEngine at fine epochs. Coarse epochs, the auto default included,
// are an approximation: A5's auto-epoch row fails the KS test (see
// WithShardEpoch). With one shard there is no deferral at all: P = 1 runs
// the direct engine's exact loop on the root stream and its fixed-seed
// output is byte-identical; the equivalence tests pin it.
//
// # Shard repartitioning
//
// A static contiguous partition load-imbalances as mass drains toward a
// few bins: the shard owning them ends up with nearly all the event
// weight while its peers idle at the barrier. The sharded engine
// therefore rebalances its range boundaries at epoch barriers,
// work-stealing style. The policy is cheap-by-default: an O(P) trigger
// fires only when the heaviest shard's ball-mass share exceeds 3/2 of
// fair, a full O(n)
// weighted-prefix split (loadvec.BalancedCuts over per-bin weights) is
// further gated by exponential backoff (8 → 1024 barriers) and only
// adopted when it shaves at least 1/8 off the maximum shard weight, and
// a migration rebuilds only the shards whose range changed — from the
// stale snapshot, which equals the live loads at every barrier.
//
// Repartitioning never breaks reproducibility: the new cuts are a pure
// function of the folded barrier statistics, so a fixed (seed, P)
// replays the identical sequence of migrations and the identical
// trajectory. At P = 1 the trigger can never fire (one shard always
// holds exactly its fair share), so the byte-identical sequential
// equivalence above is untouched.
//
// Time targets: DirectEngine stops at the first activation on or past
// the target (a ~Exp(m) overshoot); the jump engine clamps its final
// gap so UntilTime runs report exactly the target time, with the null
// activations of the window up to it in the run's Poisson tally.
//
// Choosing a mode by regime:
//
//   - dense (m ≫ n, many productive moves): ShardedEngine — per-move
//     work dominates and parallelizes across P workers (≥ P hardware
//     threads needed; BenchmarkShardedDense tracks the speedup, and the
//     `rlsweep -scaling` study reports each cell against the best
//     sequential engine).
//   - sparse/end-game (m ≈ n, mostly null activations): JumpEngine —
//     nothing to parallelize, everything to skip. This now includes
//     strict-tie and graph end-games on every supported topology,
//     dense degrees included (BenchmarkStrictEndGame,
//     BenchmarkGraphEndGame, BenchmarkGraphDense).
//   - heterogeneous speeds or exact per-activation trajectories:
//     DirectEngine, the only mode that supports every option.
//
// # Spec
//
// Spec is the shape of one simulated process: engine mode, tie rule,
// topology, bin speeds, shard count and shard epoch. A Runner holds one
// (its With* options set the fields); Spec.NewSession builds a Session
// from one, refusing the sharded engine and speeds with ErrSessionSpec;
// rlsim's flags, rlsd's JSON config and the snapshot header each decode
// into one. Spec.Validate is the only place that decides which shapes
// are legal, and every construction path — Runner.Run,
// Runner.RunTraced, Spec.NewSession, ResumeSession, and Spec.Engine,
// the module-internal entry point the experiment harness builds every
// direct and jump engine through — builds its direct or jump engine
// through one private constructor after it (the Runner builds the
// sharded engine itself), so a shape is accepted or rejected with the
// same message everywhere.
// TestSpecValidateAgreesWithConstruction walks a cross-product of
// shapes through every surface to hold it so.
//
// The rules are listed on Spec. NamedTopology and Topology.Name map the
// topology families to the names every front end shares: complete,
// ring, torus, hypercube, expander, random-<d>-regular.
//
// Every session shape is also checkpointable: Session.Snapshot writes the
// full engine state — loads, per-ball structures, level and graph
// indices, and the exact RNG stream positions — as a versioned,
// CRC-framed binary artifact, and ResumeSession rebuilds a Session that
// continues *byte-identically*: the resumed run draws the same random
// numbers, makes the same moves, and re-snapshots to the same bytes as
// the uninterrupted original. State whose in-memory order evolved
// under simulation is serialized verbatim; derived structures (prefix-sum
// trees, position indices) are rebuilt on decode — internal/persist
// documents the wire format and the split, and TestResumeByteIdentical
// gates the contract over the whole mode × strict × topology × churn
// matrix. NewTraceWriter/OpenTrace stream the same machinery into trace
// archives with embedded snapshots as seek points (cmd/rlsdump decodes
// both artifact kinds).
//
// Concurrency: a Runner is single-use single-goroutine, but a Session —
// in every session shape — is safe for concurrent callers. Each
// Session method serializes on one internal mutex; the Run* methods hold
// it for the whole simulated stretch, so concurrent churn and stats
// calls block until the run returns (split long horizons into short
// RunFor slices to interleave). This is the contract the serving layer
// builds on: cmd/rlsd hosts thousands of Sessions as tenants behind an
// HTTP/JSON control plane and an SSE telemetry plane, with one applier
// goroutine per tenant and concurrent readers on the same Session (see
// internal/service and cmd/rlsd/README.md).
//
// The experiment suite reproducing every figure and claim of the paper
// lives in internal/harness and is driven by cmd/rlsweep, cmd/rlsfigs and
// BenchmarkExperiment/<ID> in experiment_bench_test.go (`go run
// ./cmd/rlsweep -list` enumerates it; cmd/README.md documents the
// tools). README.md is the
// project front door — quickstart, the engine-mode matrix, the examples
// tour, and the benchmark methodology. `make bench` records the tracked
// perf trajectory into the next BENCH_PR*.json, including the `rlsweep
// -scaling` speedup-vs-P study (`make scaling` prints it standalone);
// shard ratios need as many hardware threads as shards, and the JSON
// headers record the machine's core count and GOMAXPROCS.
package rls
