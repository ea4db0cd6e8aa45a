package rls

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Placement chooses the initial configuration of balls in bins.
type Placement struct {
	gen loadvec.Generator
	// fit, when non-nil, says why the placement cannot hold m balls in n
	// bins; Run returns that error before generating anything.
	fit func(n, m int) error
}

// AllInOne places every ball in bin 0 — the paper's worst case.
func AllInOne() Placement { return Placement{gen: loadvec.AllInOne()} }

// Random throws each ball into a uniformly random bin (one-choice).
func Random() Placement { return Placement{gen: loadvec.OneChoice()} }

// TwoChoice places each ball greedily in the lesser loaded of two uniform
// samples (Greedy[2]).
func TwoChoice() Placement { return Placement{gen: loadvec.TwoChoice()} }

// Spread places balls as evenly as possible (a perfectly balanced start).
func Spread() Placement { return Placement{gen: loadvec.Balanced()} }

// DeltaPair starts balanced except one bin at ∅+delta and one at
// ∅−delta; DeltaPair(1) is the paper's Ω(n²/m) lower-bound instance. It
// needs delta ≥ 1, n ≥ 2, and at least delta balls in bin 1 of the
// balanced start; Run reports an error otherwise.
func DeltaPair(delta int) Placement {
	p := Placement{fit: func(n, m int) error {
		if delta < 1 {
			return fmt.Errorf("rls: DeltaPair(%d) needs delta >= 1", delta)
		}
		if n < 2 {
			return fmt.Errorf("rls: DeltaPair needs at least 2 bins, got %d", n)
		}
		// Bin 1 of the balanced start gives the delta balls away.
		low := m / n
		if m%n > 1 {
			low++
		}
		if low < delta {
			return fmt.Errorf("rls: DeltaPair(%d) takes %d balls from a bin holding %d at n=%d, m=%d", delta, delta, low, n, m)
		}
		return nil
	}}
	if delta >= 1 {
		p.gen = loadvec.DeltaPair(delta)
	}
	return p
}

// FromLoads uses the given explicit load vector (copied). It must have
// one non-negative entry per bin summing to the ball count; Run reports
// an error otherwise.
func FromLoads(loads []int) Placement {
	v := loadvec.Vector(loads).Clone()
	return Placement{gen: loadvec.FromVector(v), fit: func(n, m int) error {
		if len(v) != n {
			return fmt.Errorf("rls: FromLoads has %d loads for %d bins", len(v), n)
		}
		for i, load := range v {
			if load < 0 {
				return fmt.Errorf("rls: FromLoads has negative load %d at bin %d", load, i)
			}
		}
		if v.Balls() != m {
			return fmt.Errorf("rls: FromLoads holds %d balls, the runner has %d", v.Balls(), m)
		}
		return nil
	}}
}

// targetKind identifies which stop condition a Target expresses, so
// option plumbing can dispatch on it without comparing description
// strings.
type targetKind int

const (
	targetPerfect targetKind = iota
	targetBalanced
	targetTime
)

// Target is a stop condition for a run. The kind plus its numeric
// argument fully describe the condition, so every engine mode — including
// the sharded engine, whose stop conditions read the folded global view
// rather than a *sim.Engine — can reconstruct it.
type Target struct {
	kind targetKind
	arg  float64 // threshold for targetBalanced, horizon for targetTime
	stop func(e *sim.Engine) bool
	desc string
}

// String returns a stable description of the target ("perfect",
// "disc<=x", "t=x") for logs.
func (t Target) String() string { return t.desc }

// UntilPerfect stops at perfect balance (disc < 1) — the paper's T.
func UntilPerfect() Target {
	return Target{kind: targetPerfect, stop: sim.UntilPerfect(), desc: "perfect"}
}

// UntilBalanced stops at disc ≤ x.
func UntilBalanced(x float64) Target {
	return Target{kind: targetBalanced, arg: x, stop: sim.UntilBalanced(x), desc: fmt.Sprintf("disc<=%g", x)}
}

// UntilTime stops at continuous time t.
func UntilTime(t float64) Target {
	return Target{kind: targetTime, arg: t, stop: sim.UntilTime(t), desc: fmt.Sprintf("t=%g", t)}
}

// check rejects a target no run over m balls can meet or stop short of:
// a NaN or infinite threshold or horizon, and a horizon past
// checkHorizon's activation bound.
func (t Target) check(m int) error {
	switch t.kind {
	case targetBalanced:
		if math.IsNaN(t.arg) || math.IsInf(t.arg, 0) {
			return fmt.Errorf("rls: balance threshold %g is not finite", t.arg)
		}
	case targetTime:
		return checkHorizon(t.arg, m, 0)
	}
	return nil
}

// checkHorizon rejects running m balls for d more time units after acts
// activations when d is NaN or infinite, or when the expected activation
// count acts + m·d reaches 2^62: the jump engine tallies a flat
// stretch's null activations in one Poisson draw, and the counter must
// hold it.
func checkHorizon(d float64, m int, acts int64) error {
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return fmt.Errorf("rls: run horizon %g is not finite", d)
	}
	if float64(acts)+float64(m)*d >= 1<<62 {
		return fmt.Errorf("rls: run horizon %g at m=%d needs more than 2^62 activations", d, m)
	}
	return nil
}

// Topology restricts destination sampling to a graph neighborhood
// (§7 extension). The zero value means the complete topology of §3. A
// Topology names a family and its parameter; the graph itself is built
// against the bin count when an engine is (random-regular adjacency
// deterministically from its seed, so snapshots persist the pair and
// rebuild the same graph on resume).
type Topology struct {
	family topologyFamily
	arg    int    // torus side, hypercube dimension, or random-regular degree
	seed   uint64 // random-regular construction seed
}

// CompleteTopology is the paper's original setting (sample any bin).
func CompleteTopology() Topology { return Topology{} }

// RingTopology samples among the two ring neighbors.
func RingTopology() Topology { return Topology{family: ringFamily} }

// TorusTopology samples among the four torus neighbors; the runner's bin
// count must be side².
func TorusTopology(side int) Topology { return Topology{family: torusFamily, arg: side} }

// HypercubeTopology samples among the hypercube neighbors; the runner's
// bin count must be 2^dim, and dim ≥ 1 (dimension 0 has no edges).
func HypercubeTopology(dim int) Topology { return Topology{family: hypercubeFamily, arg: dim} }

// ExpanderTopology samples among the eight Margulis–Gabber–Galil expander
// neighbors; the runner's bin count must be a perfect square (the side
// adapts to √n). Constant spectral gap at any size — the catalogue's
// fast-mixing family.
func ExpanderTopology() Topology { return Topology{family: expanderFamily} }

// RandomRegularTopology samples among the d neighbor slots of a random
// d-regular multigraph built deterministically from seed (the pairing
// model with switching repair; construction randomness is a dedicated
// stream, independent of the run's WithSeed stream). n·d must be even
// and 1 ≤ d < n. The family exists to exercise superconstant degrees;
// the jump engine's exact admissible index serves them at O(Δ) per move.
func RandomRegularTopology(d int, seed uint64) Topology {
	return Topology{family: randomRegularFamily, arg: d, seed: seed}
}

// EngineMode selects how a run is simulated.
type EngineMode int

const (
	// DirectEngine simulates every ball activation: an Exp(m) gap, a
	// uniform ball, a uniform destination, and the protocol's accept test.
	// Near balance almost every activation is a rejected null move, so a
	// run costs O(activations). This is the default and supports every
	// protocol variant (strict rule, topologies, speeds).
	DirectEngine EngineMode = iota
	// JumpEngine simulates only the embedded jump chain of productive
	// moves: time advances by one Exp(R) gap per move at the live move
	// rate R, the move is sampled exactly from the live move weight, and
	// the null activations in between are tallied by one Poisson draw per
	// run (see internal/sim.NewJumpEngine). The balancing-time law is
	// identical to DirectEngine (experiments A4/A7/A8 KS-test it); cost
	// drops from O(activations) to O(moves·log Δ). Three rule/topology
	// variants compose: plain and strict tie rules on the complete
	// topology (the move weight shifts from C(v−1) to C(v−2) eligible
	// destinations), and the plain rule on any regular graph topology
	// (per-source admissible-slot counts, O(Δ + flips·log n) per move at
	// any degree); Spec lists what it rejects. Per-activation traces
	// and activation targets coarsen to moves.
	JumpEngine
	// ShardedEngine partitions the bins into WithShards contiguous ranges
	// simulated by concurrent goroutine workers, each with its own
	// configuration, sampler, and deterministic RNG stream; cross-shard
	// moves drain through per-shard outboxes at epoch barriers and the
	// global stop conditions read a per-barrier reconciliation of the
	// shard histograms (see internal/sim.NewSharded). It is the
	// dense-regime tool (m ≫ n, most activations productive, several
	// cores): in the end-game JumpEngine, which skips the null
	// activations, is faster. Plain RLS on the complete topology only;
	// stop conditions and traces coarsen to epoch granularity for P > 1,
	// while P = 1 reproduces the direct engine byte-for-byte.
	//
	// For P > 1 the process is an approximation whose fidelity depends on
	// the epoch length (see WithShardEpoch): experiment A5 KS-validates
	// the balancing-time law against DirectEngine at fine epochs.
	//
	// It is a Runner-only mode: Spec.NewSession answers it with
	// ErrSessionSpec, and its old snapshots do not resume.
	ShardedEngine
)

// String returns "direct", "jump", or "sharded".
func (m EngineMode) String() string {
	switch m {
	case JumpEngine:
		return "jump"
	case ShardedEngine:
		return "sharded"
	}
	return "direct"
}

// Option configures a Runner.
type Option func(*Runner)

// WithSeed fixes the random seed (default 1).
func WithSeed(seed uint64) Option { return func(r *Runner) { r.seed = seed } }

// WithPlacement sets the initial configuration (default AllInOne).
func WithPlacement(p Placement) Option { return func(r *Runner) { r.placement = p } }

// WithTarget sets the stop condition (default UntilPerfect).
func WithTarget(t Target) Option { return func(r *Runner) { r.target = t } }

// WithStrictTieRule switches to the [12]/[11] variant that forbids
// neutral moves (move only if the destination is smaller by ≥ 2). The
// paper's §3 remark: same balancing-time law. It sets Spec.Strict.
func WithStrictTieRule() Option { return func(r *Runner) { r.spec.Strict = true } }

// WithTopology restricts destination sampling to a graph (§7). It sets
// Spec.Topology.
func WithTopology(t Topology) Option { return func(r *Runner) { r.spec.Topology = t } }

// WithSpeeds gives bin i speed speeds[i] and switches to the §7
// speed-aware rule (move iff the experienced load ℓ/s strictly improves).
// The run then stops at a Nash state when the target is UntilPerfect. It
// sets Spec.Speeds (copied).
func WithSpeeds(speeds []float64) Option {
	return func(r *Runner) { r.spec.Speeds = append([]float64(nil), speeds...) }
}

// WithEngineMode selects the execution mode (default DirectEngine). The
// JumpEngine is rejection-free: same law, O(moves) instead of
// O(activations). It sets Spec.Mode.
func WithEngineMode(m EngineMode) Option { return func(r *Runner) { r.spec.Mode = m } }

// WithShards sets the sharded engine's worker count P (default
// sim.DefaultShards; clamped to the bin count). The shard count is part
// of the random-stream layout, so fixed-seed runs reproduce only for the
// same P. It sets Spec.Shards; like the sharded engine, it is Runner-only.
func WithShards(p int) Option { return func(r *Runner) { r.spec.Shards = p } }

// WithShardEpoch sets the sharded engine's epoch length in continuous
// time. Smaller epochs track the sequential process more closely —
// cross-shard moves and stop checks land at barriers — while larger ones
// amortize the barrier. The default (0 = auto) sizes epochs for
// throughput, at about 256 activations per shard between barriers. It
// sets Spec.ShardEpoch.
//
// Coarse epochs, the auto default included, are a documented
// approximation rather than the sequential law: cross-shard moves are
// decided against loads up to one epoch stale, land only at barriers,
// and balancing is observed only at barriers. The auto epoch is
// 256·P/m time units; when that is not small against the balancing time
// (small m), the law drifts far. Experiment A5 gates the law at fine
// epochs, dt = P/m, about one activation per shard between barriers, and
// reports an auto-epoch row that fails the KS test against DirectEngine
// (n = 32, m = 256, P = 4: ~75 time units to balance against ~6). Pick a
// fine epoch when the law matters more than wall-clock time.
func WithShardEpoch(dt float64) Option { return func(r *Runner) { r.spec.ShardEpoch = dt } }

// WithActivationBudget caps the number of activations (default 10^9).
func WithActivationBudget(k int64) Option { return func(r *Runner) { r.budget = k } }

// Runner executes RLS runs for one (n, m, options) setting.
type Runner struct {
	n, m      int
	seed      uint64
	placement Placement
	target    Target
	spec      Spec
	budget    int64
}

// New creates a Runner for n bins and m balls. It panics unless n ≥ 1 and
// m ≥ 1; the other options are checked by Run (see Spec.Validate).
func New(n, m int, opts ...Option) *Runner {
	if n < 1 || m < 1 {
		panic("rls: need at least one bin and one ball")
	}
	r := &Runner{
		n:         n,
		m:         m,
		seed:      1,
		placement: AllInOne(),
		target:    UntilPerfect(),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Result reports a completed run.
type Result struct {
	// Time is the continuous time at which the target was reached.
	Time float64
	// Activations counts ball activations (clock rings); Moves counts
	// successful relocations.
	Activations, Moves int64
	// Reached reports whether the target was met within the budget.
	Reached bool
	// Final is the final load vector.
	Final []int
	// Disc is the final discrepancy max_i |ℓ_i − m/n|.
	Disc float64
	// Phases records when the run crossed the paper's phase boundaries
	// (§6); negative entries were never crossed.
	Phases PhaseTimes
}

// PhaseTimes mirrors the §6 analysis boundaries; see core.PhaseTimes.
type PhaseTimes struct {
	// LogBalanced is the first time disc ≤ 96 ln n (Phase 1 target).
	LogBalanced float64
	// OneBalanced is the first time disc ≤ 1 (Phase 2 target).
	OneBalanced float64
	// Perfect is the first time disc < 1 (Phase 3 target / Theorem 1 T).
	Perfect float64
}

// TracePoint is one sampled point of a trajectory.
type TracePoint struct {
	Time        float64
	Activations int64
	Disc        float64
	MinLoad     int
	MaxLoad     int
}

// shardedStop reconstructs the configured Target over the sharded
// engine's folded global view, dispatching on the target kind.
func (r *Runner) shardedStop() sim.ShardedStop {
	switch r.target.kind {
	case targetBalanced:
		return sim.ShardedUntilBalanced(r.target.arg)
	case targetTime:
		return sim.ShardedUntilTime(r.target.arg)
	default:
		return sim.ShardedUntilPerfect()
	}
}

// stop returns the effective stop condition, adapting UntilPerfect to the
// Nash condition when speeds are configured.
func (r *Runner) stop() func(e *sim.Engine) bool {
	if speeds := r.spec.Speeds; speeds != nil && r.target.kind == targetPerfect {
		return func(e *sim.Engine) bool {
			return hetero.IsSpeedNash(e.Cfg().Loads(), speeds)
		}
	}
	return r.target.stop
}

// Run executes one run and returns its Result. Configuration errors
// (see Spec.Validate), a placement that does not fit (n, m), and a NaN or
// infinite target threshold or horizon (or one past 2^62 activations)
// are returned, not panicked.
func (r *Runner) Run() (Result, error) {
	res, _, err := r.run(0)
	return res, err
}

// RunTraced is Run plus a trajectory sampled every `every` activations
// (epoch-granular for the sharded engine with P > 1).
func (r *Runner) RunTraced(every int64) (Result, []TracePoint, error) {
	return r.run(max(every, 1))
}

// run builds the engine through the spec and runs it to the target,
// tracing every `every` activations when every > 0.
func (r *Runner) run(every int64) (Result, []TracePoint, error) {
	if err := r.spec.Validate(r.n); err != nil {
		return Result{}, nil, err
	}
	if err := r.target.check(r.m); err != nil {
		return Result{}, nil, err
	}
	if fit := r.placement.fit; fit != nil {
		if err := fit(r.n, r.m); err != nil {
			return Result{}, nil, err
		}
	}
	stream := rng.New(r.seed)
	v := r.placement.gen.Generate(r.n, r.m, stream)
	var res sim.Result
	var raw []sim.TracePoint
	var tr *core.PhaseTracker
	if r.spec.Mode == ShardedEngine {
		e := sim.NewSharded(v, r.spec.Shards, r.spec.ShardEpoch, stream)
		tr = core.NewShardedPhaseTracker(e)
		if every > 0 {
			res, raw = e.RunTraced(r.shardedStop(), r.budget, every)
		} else {
			res = e.Run(r.shardedStop(), r.budget)
		}
	} else {
		e, err := r.spec.build(v, stream)
		if err != nil {
			return Result{}, nil, err
		}
		if r.target.kind == targetTime {
			// Clamp the final jump gap at the horizon so time-targeted
			// jump runs stop at exactly the target instead of overshooting
			// by up to a whole gap (direct engines ignore the horizon).
			e.SetHorizon(r.target.arg)
		}
		tr = core.NewPhaseTracker(e)
		if every > 0 {
			res, raw = e.RunTraced(r.stop(), r.budget, every)
		} else {
			res = e.Run(r.stop(), r.budget)
		}
	}
	return Result{
		Time:        res.Time,
		Activations: res.Activations,
		Moves:       res.Moves,
		Reached:     res.Stopped,
		Final:       res.Final,
		Disc:        res.Final.Disc(),
		Phases:      PhaseTimes(tr.Times),
	}, toTracePoints(raw), nil
}

// toTracePoints converts an engine trace to the public representation.
func toTracePoints(raw []sim.TracePoint) []TracePoint {
	trace := make([]TracePoint, len(raw))
	for i, p := range raw {
		trace[i] = TracePoint{
			Time:        p.Time,
			Activations: p.Activations,
			Disc:        p.Disc,
			MinLoad:     p.MinLoad,
			MaxLoad:     p.MaxLoad,
		}
	}
	return trace
}

// Disc returns the discrepancy max_i |ℓ_i − m/n| of a load vector.
func Disc(loads []int) float64 { return loadvec.Vector(loads).Disc() }

// IsPerfect reports perfect balance (disc < 1).
func IsPerfect(loads []int) bool { return loadvec.Vector(loads).IsPerfect() }

// ExpectedBalanceTime returns the Theorem 1 quantity ln(n) + n²/m, which
// is Θ(E[T]) for RLS from any initial configuration.
func ExpectedBalanceTime(n, m int) float64 { return core.Theorem1Expectation(n, m) }

// WHPBalanceTime returns ln(n)·(1 + n²/m), the Theorem 1 w.h.p. bound
// shape.
func WHPBalanceTime(n, m int) float64 { return core.Theorem1WHP(n, m) }

// HarmonicLowerBound returns H_m − H_⌊m/n⌋, the §4 lower bound on E[T]
// from the single-bin start.
func HarmonicLowerBound(n, m int) float64 { return core.LowerBoundAllInOne(n, m) }

// PairLowerBound returns n/(∅+1), the exact expected balancing time of
// the ±1 lower-bound instance.
func PairLowerBound(n, m int) float64 { return core.LowerBoundDeltaPair(n, m) }

// MaxLatency returns the maximum load (the KP-model social cost of the
// configuration under unit weights).
func MaxLatency(loads []int) int {
	_, max := loadvec.Vector(loads).MinMax()
	return max
}

// NashGap returns how far a configuration is from a pure Nash equilibrium
// of the unit-weight KP-game: the number of bin pairs' worth of
// improving moves, measured as max(0, max ℓ − min ℓ − 1) (0 iff no ball
// can strictly improve, i.e. the configuration is perfectly balanced or
// off by neutral moves only).
func NashGap(loads []int) int {
	min, max := loadvec.Vector(loads).MinMax()
	gap := max - min - 1
	if gap < 0 {
		return 0
	}
	return gap
}
