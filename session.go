package rls

import (
	"fmt"
	"math"
	"sync"

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
// Sessions run the direct and jump engines (see Spec.NewSession): the
// default DirectEngine simulates every activation (O(1) per churn event,
// O(1) per activation); the JumpEngine simulates only productive moves
// (O(log Δ) per churn event and per move, or O(Δ + flips·log n) on a
// topology), which makes long converged stretches — where the direct
// engine burns almost all activations on rejected null moves — nearly
// free. The sharded engine is a Runner-only mode.
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
// concurrent readers see a frozen-in-time snapshot between events).
type Session struct {
	// mu serializes every method; see the Concurrency section above. The
	// methods below must not call each other while holding it — shared
	// logic lives in unexported unlocked helpers.
	mu     sync.Mutex
	engine *sim.Engine
	stream *rng.RNG
	spec   Spec // fixed at creation, so readers need no lock
}

// SessionOption configures the Spec NewSession builds from.
type SessionOption func(*Spec)

// WithSessionEngineMode selects the session's execution mode (default
// DirectEngine). See EngineMode for the trade-offs.
func WithSessionEngineMode(m EngineMode) SessionOption {
	return func(s *Spec) { s.Mode = m }
}

// NewSession creates a session with n empty bins: it applies opts to a
// zero Spec and calls Spec.NewSession, panicking with the error that
// returns. Use Spec.NewSession directly for the strict tie rule, a
// topology, or an error instead of a panic.
func NewSession(n int, seed uint64, opts ...SessionOption) *Session {
	var spec Spec
	for _, o := range opts {
		o(&spec)
	}
	s, err := spec.NewSession(n, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Mode returns the session's engine mode.
func (s *Session) Mode() EngineMode { return s.spec.Mode }

// Strict reports whether the session runs under the strict tie rule.
func (s *Session) Strict() bool { return s.spec.Strict }

// TopologyName returns the session topology's name: "complete", "ring",
// "torus", "hypercube", "expander", or "random-<d>-regular".
func (s *Session) TopologyName() string { return s.spec.Topology.Name() }

// N returns the number of bins.
func (s *Session) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Cfg().N()
}

// M returns the current number of balls.
func (s *Session) M() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Cfg().M()
}

// Loads returns a copy of the current load vector.
func (s *Session) Loads() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Cfg().Snapshot()
}

// Disc returns the current discrepancy.
func (s *Session) Disc() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.discLocked()
}

// discLocked is the discrepancy, 0 for an empty session.
func (s *Session) discLocked() float64 {
	if s.engine.Cfg().M() == 0 {
		return 0
	}
	return s.engine.Cfg().Disc()
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
	return SessionStats{
		Time:        s.engine.Time(),
		Activations: s.engine.Activations(),
		Moves:       s.engine.Moves(),
		Balls:       s.engine.Cfg().M(),
		Disc:        s.discLocked(),
	}
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
// direct mode, O(log Δ) in jump mode.
func (s *Session) AddBall(bin int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bin < 0 || bin >= s.engine.Cfg().N() {
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
	bin := s.stream.Intn(s.engine.Cfg().N())
	s.engine.AddBall(bin)
	return bin
}

// RemoveBall removes one ball from the given bin (a user leaving): O(1)
// in direct mode, O(log Δ) in jump mode.
func (s *Session) RemoveBall(bin int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bin < 0 || bin >= s.engine.Cfg().N() {
		return fmt.Errorf("rls: bin %d out of range", bin)
	}
	if s.engine.Cfg().Load(bin) == 0 {
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
	if s.engine.Cfg().M() == 0 {
		return 0, fmt.Errorf("rls: no balls to remove")
	}
	bin := s.engine.RandomBin()
	s.engine.RemoveBall(bin)
	return bin, nil
}

// RunFor advances the protocol by duration d of continuous time on the
// live engine. A NaN or infinite d, or one that needs 2^62 activations or
// more, is an error and changes nothing. The session lock is held for the whole stretch: concurrent
// churn and stats calls block until the run returns (see the Concurrency
// section on Session).
func (s *Session) RunFor(d float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.engine.Cfg().M() == 0 {
		return fmt.Errorf("rls: session has no balls")
	}
	if err := checkHorizon(d, s.engine.Cfg().M(), s.engine.Activations()); err != nil {
		return err
	}
	// The horizon clamps the jump engine's final gap exactly at the end
	// (direct mode ignores it); clear it afterwards — the engine persists
	// across runs.
	end := s.engine.Time() + d
	s.engine.SetHorizon(end)
	s.engine.Advance(sim.UntilTime(end), s.budgetLocked(sim.DefaultActivationBudget))
	s.engine.SetHorizon(0)
	return nil
}

// RunUntilPerfect advances until perfect balance (or the activation
// budget is exhausted) and reports whether balance was reached. Like
// RunFor, the session lock is held until the run returns.
func (s *Session) RunUntilPerfect(budget int64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.engine.Cfg().M() == 0 {
		return false, fmt.Errorf("rls: session has no balls")
	}
	if budget <= 0 {
		budget = sim.DefaultActivationBudget
	}
	s.engine.SetHorizon(0)
	return s.engine.Advance(sim.UntilPerfect(), s.budgetLocked(budget)), nil
}

// budgetLocked turns a positive budget relative to the running activation
// counter into the absolute cap sim.Engine.Advance takes — an absolute cap
// would starve sessions whose persistent engine has run long already. The
// sum saturates at MaxInt64: a wrapped, negative cap would make Advance fall
// back to its absolute default.
func (s *Session) budgetLocked(budget int64) int64 {
	if acts := s.engine.Activations(); budget < math.MaxInt64-acts {
		return acts + budget
	}
	return math.MaxInt64
}
