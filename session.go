package rls

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Session is a long-lived balancing system supporting dynamic churn:
// balls may join and leave between (and interleaved with) stretches of
// RLS execution. It models the self-stabilization settings from the
// paper's motivation (P2P networks, channel allocation) where the
// population changes over time and the protocol keeps re-balancing; RLS
// needs no restart or global coordination after churn — exactly its
// selling point in §1.
//
// The session is churn-native: a single engine persists for the whole
// session lifetime, and every join/leave is absorbed incrementally by
// updating the live load configuration and the sampling state in place.
// The engine's activation rate reads the live ball count, so it tracks
// the population with no rebuild, snapshot, or state transfer.
//
// Sessions run in any engine mode: the default DirectEngine simulates
// every activation (O(1) per churn event, O(1) per activation); the
// JumpEngine simulates only productive moves (O(log Δ) per churn event
// and per move), which makes long converged stretches — where the direct
// engine burns almost all activations on rejected null moves — nearly
// free; the ShardedEngine partitions the bins across goroutine workers
// for the dense regime, hashing each churn event to the owning shard so
// joins and leaves stay O(1).
//
// # Concurrency
//
// A Session is safe for concurrent use by multiple goroutines: every
// method acquires one internal mutex, so calls serialize in lock-acquisition
// order and each observes a consistent engine state. The contract has one
// sharp edge worth knowing: RunFor and RunUntilPerfect hold the lock for
// the entire simulated stretch, so churn and stats calls issued while a
// run is in flight block until it returns — interleave by splitting long
// horizons into short RunFor slices, exactly what a serving layer's event
// loop does anyway (cmd/rlsd drives one goroutine per tenant and lets
// concurrent readers see a frozen-in-time snapshot between events). The
// sharded engine's worker goroutines live entirely inside a Run call and
// never touch the Session after it returns, so the mutex covers them too.
type Session struct {
	// mu serializes every method; see the Concurrency section above. The
	// methods below must not call each other while holding it — shared
	// logic lives in unexported unlocked helpers.
	mu       sync.Mutex
	engine   sessionEngine
	stream   *rng.RNG
	mode     EngineMode
	shards   int
	strict   bool
	topology Topology
}

// sessionEngine is the churn-plus-execution surface Session drives; it is
// implemented by both the sequential engine (direct and jump modes) and
// the sharded engine.
type sessionEngine interface {
	AddBall(bin int)
	RemoveBall(bin int)
	RandomBin() int
	Time() float64
	Activations() int64
	Moves() int64
	Bins() int
	Balls() int
	BinLoad(bin int) int
	SnapshotLoads() loadvec.Vector
	CurrentDisc() float64
	RunUntilTime(t float64, maxActivations int64)
	RunToPerfect(maxActivations int64) bool
}

// sequentialSession adapts *sim.Engine (direct or jump mode).
type sequentialSession struct{ e *sim.Engine }

func (a sequentialSession) AddBall(bin int)               { a.e.AddBall(bin) }
func (a sequentialSession) RemoveBall(bin int)            { a.e.RemoveBall(bin) }
func (a sequentialSession) RandomBin() int                { return a.e.RandomBin() }
func (a sequentialSession) Time() float64                 { return a.e.Time() }
func (a sequentialSession) Activations() int64            { return a.e.Activations() }
func (a sequentialSession) Moves() int64                  { return a.e.Moves() }
func (a sequentialSession) Bins() int                     { return a.e.Cfg().N() }
func (a sequentialSession) Balls() int                    { return a.e.Cfg().M() }
func (a sequentialSession) BinLoad(bin int) int           { return a.e.Cfg().Load(bin) }
func (a sequentialSession) SnapshotLoads() loadvec.Vector { return a.e.Cfg().Snapshot() }
func (a sequentialSession) CurrentDisc() float64          { return a.e.Cfg().Disc() }
func (a sequentialSession) RunUntilTime(t float64, maxActivations int64) {
	// The horizon clamps jump-mode blocks exactly at t (direct mode ignores
	// it); clear it afterwards — the engine persists across runs.
	a.e.SetHorizon(t)
	a.e.Run(sim.UntilTime(t), maxActivations)
	a.e.SetHorizon(0)
}
func (a sequentialSession) RunToPerfect(maxActivations int64) bool {
	a.e.SetHorizon(0)
	return a.e.Run(sim.UntilPerfect(), maxActivations).Stopped
}

// shardedSession adapts *sim.Sharded.
type shardedSession struct{ e *sim.Sharded }

func (a shardedSession) AddBall(bin int)               { a.e.AddBall(bin) }
func (a shardedSession) RemoveBall(bin int)            { a.e.RemoveBall(bin) }
func (a shardedSession) RandomBin() int                { return a.e.RandomBin() }
func (a shardedSession) Time() float64                 { return a.e.Time() }
func (a shardedSession) Activations() int64            { return a.e.Activations() }
func (a shardedSession) Moves() int64                  { return a.e.Moves() }
func (a shardedSession) Bins() int                     { return a.e.N() }
func (a shardedSession) Balls() int                    { return a.e.M() }
func (a shardedSession) BinLoad(bin int) int           { return a.e.Load(bin) }
func (a shardedSession) SnapshotLoads() loadvec.Vector { return a.e.Snapshot() }
func (a shardedSession) CurrentDisc() float64          { return a.e.Disc() }
func (a shardedSession) RunUntilTime(t float64, maxActivations int64) {
	a.e.Run(sim.ShardedUntilTime(t), maxActivations)
}
func (a shardedSession) RunToPerfect(maxActivations int64) bool {
	return a.e.Run(sim.ShardedUntilPerfect(), maxActivations).Stopped
}

// SessionOption configures a Session.
type SessionOption func(*Session)

// WithSessionEngineMode selects the session's execution mode (default
// DirectEngine). See EngineMode for the trade-offs.
func WithSessionEngineMode(m EngineMode) SessionOption {
	return func(s *Session) { s.mode = m }
}

// WithSessionShards sets the sharded session's worker count (default
// sim.DefaultShards); it only takes effect with
// WithSessionEngineMode(ShardedEngine).
func WithSessionShards(p int) SessionOption {
	return func(s *Session) { s.shards = p }
}

// WithSessionStrictTieRule runs the session under the strict tie rule
// (move only if the destination is smaller by ≥ 2). Supported by the
// direct and jump modes; not on a topology, not by the sharded engine.
func WithSessionStrictTieRule() SessionOption {
	return func(s *Session) { s.strict = true }
}

// WithSessionTopology restricts the session's destination sampling to a
// graph (§7). Supported by the direct mode (any graph) and the jump mode
// (regular graphs, plain tie rule); the sharded engine rejects it. Churn
// updates the jump mode's per-source admissible structure incrementally
// (O(Δ + flips·log n) per join/leave).
func WithSessionTopology(t Topology) SessionOption {
	return func(s *Session) { s.topology = t }
}

// NewSession creates a session with n empty bins.
func NewSession(n int, seed uint64, opts ...SessionOption) *Session {
	if n < 1 {
		panic("rls: NewSession needs at least one bin")
	}
	s := &Session{stream: rng.New(seed)}
	for _, o := range opts {
		o(s)
	}
	if s.strict && s.topology.active() {
		panic("rls: strict tie rule on a topology is not supported")
	}
	switch s.mode {
	case JumpEngine:
		switch {
		case s.topology.active():
			s.engine = sequentialSession{sim.NewGraphJumpEngine(make(loadvec.Vector, n), s.sessionGraph(n), s.stream)}
		case s.strict:
			s.engine = sequentialSession{sim.NewStrictJumpEngine(make(loadvec.Vector, n), s.stream)}
		default:
			s.engine = sequentialSession{sim.NewJumpEngine(make(loadvec.Vector, n), s.stream)}
		}
	case ShardedEngine:
		if s.strict || s.topology.active() {
			panic("rls: sharded sessions support only plain RLS on the complete topology")
		}
		s.engine = shardedSession{sim.NewSharded(make(loadvec.Vector, n), s.shards, 0, s.stream)}
	case DirectEngine:
		var mover sim.Mover = core.RLS{}
		if s.topology.active() {
			mover = graphs.GraphRLS{G: s.sessionGraph(n)}
		} else if s.strict {
			mover = core.StrictRLS{}
		}
		s.engine = sequentialSession{sim.NewEngine(make(loadvec.Vector, n), mover, sim.NewBallList(), s.stream)}
	default:
		panic(fmt.Sprintf("rls: unknown engine mode %d", s.mode))
	}
	return s
}

// sessionGraph resolves the configured topology against the session's bin
// count, panicking (NewSession's error style) on a mismatch or — in jump
// mode — an irregular graph.
func (s *Session) sessionGraph(n int) graphs.Graph {
	g, err := resolveGraph(s.topology, n)
	if err != nil {
		panic(err.Error())
	}
	if s.mode == JumpEngine {
		if _, ok := graphs.RegularDegree(g); !ok {
			panic(fmt.Sprintf("rls: the jump engine needs a regular topology, %s is not", g.Name()))
		}
	}
	return g
}

// Mode returns the session's engine mode. The mode is fixed at
// construction, so this needs no lock.
func (s *Session) Mode() EngineMode { return s.mode }

// Shards returns the configured worker count (0 means the sharded
// engines pick their default); fixed at creation.
func (s *Session) Shards() int { return s.shards }

// Strict reports whether the session runs under the strict tie rule.
func (s *Session) Strict() bool { return s.strict }

// TopologyName returns the session topology's name: "complete", "ring",
// "torus", "hypercube", "expander", or "random-<d>-regular".
func (s *Session) TopologyName() string {
	if s.topology.rrD > 0 {
		return fmt.Sprintf("random-%d-regular", s.topology.rrD)
	}
	switch s.topology.g.(type) {
	case graphs.Ring:
		return "ring"
	case graphs.Torus2D:
		return "torus"
	case graphs.Hypercube:
		return "hypercube"
	case graphs.Expander:
		return "expander"
	}
	return "complete"
}

// N returns the number of bins.
func (s *Session) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Bins()
}

// M returns the current number of balls.
func (s *Session) M() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Balls()
}

// Loads returns a copy of the current load vector.
func (s *Session) Loads() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.SnapshotLoads()
}

// Disc returns the current discrepancy.
func (s *Session) Disc() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.engine.Balls() == 0 {
		return 0
	}
	return s.engine.CurrentDisc()
}

// Time returns the total elapsed continuous time across the session.
func (s *Session) Time() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Time()
}

// Activations returns the total ball activations across the session.
func (s *Session) Activations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Activations()
}

// Moves returns the total protocol moves across the session.
func (s *Session) Moves() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Moves()
}

// Stats returns one consistent snapshot of the session's scalar counters
// — time, activations, moves, ball count, and discrepancy — under a
// single lock acquisition. Concurrent callers reading the counters one
// method at a time can interleave with churn between the reads; telemetry
// producers (cmd/rlsd's stream plane) want the atomic view.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStats{
		Time:        s.engine.Time(),
		Activations: s.engine.Activations(),
		Moves:       s.engine.Moves(),
		Balls:       s.engine.Balls(),
	}
	if st.Balls > 0 {
		st.Disc = s.engine.CurrentDisc()
	}
	return st
}

// SessionStats is the consistent counter snapshot returned by
// Session.Stats.
type SessionStats struct {
	Time        float64
	Activations int64
	Moves       int64
	Balls       int
	Disc        float64
}

// AddBall inserts one ball into the given bin (a user joining): O(1) in
// direct and sharded modes, O(log Δ) in jump mode.
func (s *Session) AddBall(bin int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bin < 0 || bin >= s.engine.Bins() {
		return fmt.Errorf("rls: bin %d out of range", bin)
	}
	s.engine.AddBall(bin)
	return nil
}

// AddBallRandom inserts one ball into a uniformly random bin and returns
// the bin.
func (s *Session) AddBallRandom() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	bin := s.stream.Intn(s.engine.Bins())
	s.engine.AddBall(bin)
	return bin
}

// RemoveBall removes one ball from the given bin (a user leaving): O(1)
// in direct and sharded modes, O(log Δ) in jump mode.
func (s *Session) RemoveBall(bin int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bin < 0 || bin >= s.engine.Bins() {
		return fmt.Errorf("rls: bin %d out of range", bin)
	}
	if s.engine.BinLoad(bin) == 0 {
		return fmt.Errorf("rls: bin %d is empty", bin)
	}
	s.engine.RemoveBall(bin)
	return nil
}

// RemoveRandomBall removes a uniformly random ball and returns the bin it
// left (balls being identical, removing any resident of a
// load-proportionally sampled bin removes a uniform ball).
func (s *Session) RemoveRandomBall() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.engine.Balls() == 0 {
		return 0, fmt.Errorf("rls: no balls to remove")
	}
	bin := s.engine.RandomBin()
	s.engine.RemoveBall(bin)
	return bin, nil
}

// RunFor advances the protocol by duration d of continuous time on the
// live engine. The session lock is held for the whole stretch: concurrent
// churn and stats calls block until the run returns (see the Concurrency
// section on Session).
func (s *Session) RunFor(d float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.engine.Balls() == 0 {
		return fmt.Errorf("rls: session has no balls")
	}
	// The budget is relative to the running activation counter: the engine
	// persists for the session lifetime, so an absolute cap would starve
	// long sessions.
	s.engine.RunUntilTime(s.engine.Time()+d, s.engine.Activations()+sim.DefaultActivationBudget)
	return nil
}

// RunUntilPerfect advances until perfect balance (or the activation
// budget is exhausted) and reports whether balance was reached. Like
// RunFor, the session lock is held until the run returns.
func (s *Session) RunUntilPerfect(budget int64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.engine.Balls() == 0 {
		return false, fmt.Errorf("rls: session has no balls")
	}
	if budget <= 0 {
		budget = sim.DefaultActivationBudget
	}
	// Relative to the running counter, like RunFor: an absolute cap would
	// starve sessions whose persistent engine has run long already.
	return s.engine.RunToPerfect(s.engine.Activations() + budget), nil
}
