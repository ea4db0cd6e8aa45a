package sim

import (
	"fmt"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// A Mover is a sequential protocol's decision rule: given the current
// configuration and the bin of the activated ball, it samples whatever
// candidates it needs from r and decides where (if anywhere) the ball
// goes. RLS is the canonical Mover; the paper's §3 remark variant and the
// graph-restricted extension are others.
type Mover interface {
	// Decide returns the destination bin and whether the ball moves.
	// If move is false, dst is ignored.
	Decide(cfg *loadvec.Config, src int, r *rng.RNG) (dst int, move bool)
	// Name identifies the protocol.
	Name() string
}

// Engine drives one continuous-time run. In the direct mode it repeatedly
// advances time by an Exp(m) gap, activates a uniformly random ball, and
// applies the Mover's decision; in jump mode (NewJumpEngine) it advances
// one whole block of null activations plus the move that ends it per
// Step. Adversaries (Lemma 2) may inject extra moves through ForceMove
// from a PostMove hook.
type Engine struct {
	cfg   *loadvec.Config
	balls *BallList // the activation sampler; nil in jump mode
	mover Mover
	r     *rng.RNG
	jump  bool        // rejection-free jump-chain mode (see jump.go)
	gidx  *graphIndex // jump mode on a graph topology (jumpgraph.go)

	time        float64
	activations int64
	moves       int64
	forced      int64

	// horizon, when positive, is the continuous-time target of the current
	// run. Only jump mode consults it: stepJump clamps the geometric block
	// that would land past the horizon, so time-targeted jump runs stop at
	// exactly the horizon instead of overshooting by up to a whole block
	// (~m·n/W activations near balance). Direct mode keeps its
	// per-activation granularity and ignores it.
	horizon float64

	// PostMove, if non-nil, runs after every protocol move with the move's
	// endpoints. It may call ForceMove; Lemma 2's adversary lives here.
	PostMove func(e *Engine, src, dst int)
}

// NewEngine builds a direct engine over a copy of the initial
// configuration, sampling activations from a ball list.
func NewEngine(initial loadvec.Vector, mover Mover, r *rng.RNG) *Engine {
	if r == nil {
		panic("sim: NewEngine with nil RNG")
	}
	if mover == nil {
		panic("sim: NewEngine with nil mover")
	}
	balls := NewBallList()
	balls.Reset(initial)
	return &Engine{cfg: loadvec.NewConfig(initial), balls: balls, mover: mover, r: r}
}

// Cfg exposes the live configuration (read-only use expected; mutate only
// through ForceMove so the ball list stays in sync).
func (e *Engine) Cfg() *loadvec.Config { return e.cfg }

// Time returns the elapsed continuous time.
func (e *Engine) Time() float64 { return e.time }

// Activations returns the number of ball activations so far.
func (e *Engine) Activations() int64 { return e.activations }

// Moves returns the number of protocol moves so far.
func (e *Engine) Moves() int64 { return e.moves }

// ForcedMoves returns the number of adversarial moves injected so far.
func (e *Engine) ForcedMoves() int64 { return e.forced }

// RNG returns the engine's random stream (adversaries may share it).
func (e *Engine) RNG() *rng.RNG { return e.r }

// SetHorizon declares the continuous-time target of the next run (0
// clears it). Jump mode clamps its final geometric block there — the move
// that would land beyond the horizon is not applied, the null activations
// before it are tallied in one conditioned Poisson draw, and the clock
// lands on the horizon exactly — so UntilTime runs never report a time
// past the target. Callers driving a persistent engine (Session) must
// clear the horizon before non-time-targeted runs.
func (e *Engine) SetHorizon(t float64) { e.horizon = t }

// Step performs one activation (direct mode) or one jump-chain block
// (jump mode) and returns whether a ball moved. A direct activation
// advances time by Exp(m), the gap of the superposition of m rate-1
// clocks, and activates a uniformly random ball.
func (e *Engine) Step() bool {
	if e.jump {
		return e.stepJump()
	}
	e.time += e.r.Exp(float64(e.cfg.M()))
	src := e.balls.Sample(e.r)
	dst, move := e.mover.Decide(e.cfg, src, e.r)
	e.activations++
	if !move || dst == src {
		return false
	}
	e.cfg.Move(src, dst)
	e.balls.MoveBall(src, dst)
	e.moves++
	if e.PostMove != nil {
		e.PostMove(e, src, dst)
	}
	return true
}

// AddBall inserts one ball into bin (a dynamic arrival), keeping the
// configuration and the ball list in lockstep. The activation rate
// adjusts automatically: Step reads the live m for its Exp(m) gap. Cost
// is O(1) on a direct engine and O(log Δ) on a jump engine — never an
// O(m) rebuild.
func (e *Engine) AddBall(bin int) {
	e.cfg.AddBall(bin)
	if e.balls != nil {
		e.balls.AddBall(bin)
	}
	if e.gidx != nil {
		e.gidx.update(e.cfg, bin, -1)
	}
}

// RemoveBall removes one ball from bin (a dynamic departure), keeping the
// configuration and the ball list in lockstep. Balls being identical, any
// resident of bin may be the one to leave. It panics if the bin is empty.
func (e *Engine) RemoveBall(bin int) {
	e.cfg.RemoveBall(bin)
	if e.balls != nil {
		e.balls.RemoveBall(bin)
	}
	if e.gidx != nil {
		e.gidx.update(e.cfg, bin, -1)
	}
}

// RandomBin returns the bin of a uniformly random ball without advancing
// the run — the draw session churn uses to pick a departure target. Both
// modes consume one draw from the engine's RNG stream. A graph jump
// engine builds the plain level index on its first call.
func (e *Engine) RandomBin() int {
	if !e.jump {
		return e.balls.Sample(e.r)
	}
	if !e.cfg.LevelIndexed() {
		e.cfg.EnableLevelIndex()
	}
	return e.cfg.SampleBallBin(e.r)
}

// ForceMove applies a move outside the protocol (adversarial/destructive),
// keeping the ball list in sync. It does not advance time: the DML adversary
// acts instantaneously after protocol moves.
func (e *Engine) ForceMove(src, dst int) {
	e.cfg.Move(src, dst)
	if e.balls != nil {
		e.balls.MoveBall(src, dst)
	}
	if e.gidx != nil {
		e.gidx.update(e.cfg, src, dst)
	}
	e.forced++
}

// Result summarizes a completed run.
type Result struct {
	// Time is the continuous time at which the run stopped.
	Time float64
	// Activations and Moves count ball activations and successful moves.
	Activations, Moves int64
	// ForcedMoves counts adversarial moves.
	ForcedMoves int64
	// Stopped reports whether the stop condition was met (as opposed to
	// exhausting the activation budget).
	Stopped bool
	// Final is the final load vector.
	Final loadvec.Vector
}

func (res Result) String() string {
	return fmt.Sprintf("Result{t=%.3f acts=%d moves=%d stopped=%v}",
		res.Time, res.Activations, res.Moves, res.Stopped)
}

// DefaultActivationBudget is the generous per-run activation cap applied
// when a caller passes a non-positive budget; runs that long indicate a
// bug or a degenerate parameterization.
const DefaultActivationBudget = 1_000_000_000

// Run advances the engine until stop returns true or maxActivations is
// exhausted (pass maxActivations <= 0 for DefaultActivationBudget).
func (e *Engine) Run(stop StopCond, maxActivations int64) Result {
	stopped := e.Advance(stop, maxActivations)
	return Result{
		Time:        e.time,
		Activations: e.activations,
		Moves:       e.moves,
		ForcedMoves: e.forced,
		Stopped:     stopped,
		Final:       e.cfg.Snapshot(),
	}
}

// Advance is Run without the Result: it runs the same loop and reports
// whether stop was met. A persistent engine's owner (Session) reads what
// it needs off the engine instead of paying for Result.Final's copy of
// the load vector on every run.
func (e *Engine) Advance(stop StopCond, maxActivations int64) bool {
	if maxActivations <= 0 {
		maxActivations = DefaultActivationBudget
	}
	stopped := stop(e)
	for !stopped && e.activations < maxActivations {
		e.Step()
		stopped = stop(e)
	}
	return stopped
}

// TracePoint is one sample of a run's trajectory.
type TracePoint struct {
	Time        float64
	Activations int64
	Disc        float64
	Overloaded  float64
	MinLoad     int
	MaxLoad     int
}

// RunTraced behaves like Run but also samples the trajectory every
// `every` activations (and at the initial and final states). It is Run
// with a stop condition that records a point before consulting stop.
// Jump-mode steps advance the activation counter by whole blocks, so
// there a point is recorded at the first step on or past each `every`
// boundary.
func (e *Engine) RunTraced(stop StopCond, maxActivations, every int64) (Result, []TracePoint) {
	every = max(every, 1)
	var trace []TracePoint
	record := func() {
		trace = append(trace, TracePoint{
			Time:        e.time,
			Activations: e.activations,
			Disc:        e.cfg.Disc(),
			Overloaded:  e.cfg.OverloadedBalls(),
			MinLoad:     e.cfg.Min(),
			MaxLoad:     e.cfg.Max(),
		})
	}
	record()
	nextRecord := e.activations + every
	res := e.Run(func(e *Engine) bool {
		if e.activations >= nextRecord {
			record()
			nextRecord = (e.activations/every + 1) * every
		}
		return stop(e)
	}, maxActivations)
	// Close the trace with the final state unless the last boundary point
	// already captured it (the activation counter only moves in Step, so
	// equal counters mean an identical state — no duplicate point).
	if trace[len(trace)-1].Activations != e.activations {
		record()
	}
	return res, trace
}
