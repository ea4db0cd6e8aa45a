package sim

import (
	"testing"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

func shardedFrom(n, m, p int, epoch float64, seed uint64) *Sharded {
	r := rng.New(seed)
	v := loadvec.OneChoice().Generate(n, m, r)
	return NewSharded(v, p, epoch, r)
}

func TestShardedBalances(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		s := shardedFrom(64, 512, p, 0, 9)
		res := s.Run(ShardedUntilPerfect(), 50_000_000)
		if !res.Stopped {
			t.Fatalf("P=%d did not balance", p)
		}
		if d := loadvec.Vector(res.Final).Disc(); d >= 1 {
			t.Fatalf("P=%d final disc %g", p, d)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if res.Final.Balls() != 512 {
			t.Fatalf("P=%d lost balls: %d", p, res.Final.Balls())
		}
	}
}

// Fixed seed and shard count must reproduce the run exactly, regardless
// of goroutine scheduling: the whole point of per-shard RNG streams and
// deterministic barrier draining.
func TestShardedDeterministic(t *testing.T) {
	run := func() Result {
		s := shardedFrom(48, 480, 4, 0.05, 1234)
		return s.Run(ShardedUntilPerfect(), 50_000_000)
	}
	a, b := run(), run()
	if a.Time != b.Time || a.Activations != b.Activations || a.Moves != b.Moves {
		t.Fatalf("nondeterministic counters: %+v vs %+v", a, b)
	}
	for i := range a.Final {
		if a.Final[i] != b.Final[i] {
			t.Fatalf("nondeterministic final loads at bin %d", i)
		}
	}
}

func TestShardedFoldedStatsMatchGlobal(t *testing.T) {
	s := shardedFrom(40, 400, 5, 0, 3)
	s.Run(ShardedUntilBalanced(2), 10_000_000)
	g := s.GlobalConfig()
	st := s.Stats()
	if st.Min != g.Min() || st.Max != g.Max() || st.M != g.M() || st.N != g.N() {
		t.Fatalf("folded stats %+v != global config %v", st, g)
	}
}

func TestShardedCrossMovesFlow(t *testing.T) {
	// All balls start in shard 0's range; balancing requires cross-shard
	// moves, so the queue must both propose and apply.
	r := rng.New(21)
	v := loadvec.AllInOne().Generate(32, 320, r)
	s := NewSharded(v, 4, 0.02, r)
	res := s.Run(ShardedUntilPerfect(), 50_000_000)
	if !res.Stopped {
		t.Fatal("did not balance")
	}
	if s.CrossApplied() == 0 || s.CrossProposed() < s.CrossApplied() {
		t.Fatalf("cross-move accounting: proposed=%d applied=%d",
			s.CrossProposed(), s.CrossApplied())
	}
	if res.Moves < s.CrossApplied() {
		t.Fatalf("moves %d below applied cross moves %d", res.Moves, s.CrossApplied())
	}
}

func TestShardedTimeTarget(t *testing.T) {
	s := shardedFrom(16, 160, 4, 0, 5)
	res := s.Run(ShardedUntilTime(3.0), 0)
	if !res.Stopped || res.Time < 3.0 {
		t.Fatalf("time target: %+v", res)
	}
	// Overshoot is at most about one epoch plus one activation gap.
	if res.Time > 3.0+10*s.dt {
		t.Fatalf("time overshoot too large: %g (dt=%g)", res.Time, s.dt)
	}
}

func TestShardedTraced(t *testing.T) {
	s := shardedFrom(16, 128, 2, 0, 19)
	res, trace := s.RunTraced(ShardedUntilPerfect(), 10_000_000, 50)
	if !res.Stopped {
		t.Fatal("did not balance")
	}
	if len(trace) < 2 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Activations <= trace[i-1].Activations {
			t.Fatal("trace activations not strictly increasing")
		}
		if trace[i].Time < trace[i-1].Time {
			t.Fatal("trace time not monotone")
		}
	}
	if last := trace[len(trace)-1]; last.Activations != res.Activations {
		t.Errorf("final trace point at %d activations, run ended at %d",
			last.Activations, res.Activations)
	}
}

// Sharding must preserve the §3 monotonicity: every applied move — local
// or barrier-drained — satisfies the RLS rule at application time, so the
// max load never increases and the min never decreases across a run.
func TestShardedMonotoneExtremes(t *testing.T) {
	s := shardedFrom(32, 640, 4, 0.05, 77)
	prevMin, prevMax := s.Min(), s.Max()
	violations := 0
	s.PostCheck = func(s *Sharded) {
		if s.Min() < prevMin || s.Max() > prevMax {
			violations++
		}
		prevMin, prevMax = s.Min(), s.Max()
	}
	s.Run(ShardedUntilPerfect(), 50_000_000)
	if violations != 0 {
		t.Fatalf("%d extreme-load monotonicity violations", violations)
	}
}

// Regression: an imbalanced start (all balls in shard 0) must not
// permanently throttle the shards that start light. The per-epoch queue
// budget is re-sized from each shard's live ball count, so shards that
// gain mass mid-run keep pace and every shard clock reaches the stop
// horizon — a stale budget left them silently lagging while Time()
// (the max clock) claimed completion.
func TestShardedImbalancedStartKeepsShardClocksInSync(t *testing.T) {
	r := rng.New(3)
	v := loadvec.AllInOne().Generate(1024, 8192, r)
	s := NewSharded(v, 4, 0, r)
	const horizon = 4.0
	res := s.Run(ShardedUntilTime(horizon), 0)
	for i, sh := range s.shards {
		if sh.t < horizon {
			t.Errorf("shard %d clock %.3f lags the stop horizon %.1f", i, sh.t, horizon)
		}
	}
	// Activation total must match the Poisson law: E = m·T = 32768 with
	// sd ≈ 181; a lagging shard under-simulates by thousands.
	if res.Activations < 31500 || res.Activations > 34000 {
		t.Errorf("activations %d far from m·T = 32768", res.Activations)
	}
}

func TestShardedShardCountClamped(t *testing.T) {
	r := rng.New(1)
	v := loadvec.OneChoice().Generate(3, 30, r)
	s := NewSharded(v, 8, 0, r) // more shards than bins: clamp to n
	if s.Shards() != 3 {
		t.Fatalf("shards = %d, want clamp to 3", s.Shards())
	}
	if res := s.Run(ShardedUntilPerfect(), 10_000_000); !res.Stopped {
		t.Fatal("did not balance")
	}
}
