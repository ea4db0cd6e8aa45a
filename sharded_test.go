package rls

import (
	"math"
	"testing"
)

// sameResult requires two runs to be indistinguishable down to the IEEE
// bits of the stop time — the "byte-identical" bar the golden tests set
// for refactors of the direct path.
func sameResult(t *testing.T, name string, a, b Result) {
	t.Helper()
	if math.Float64bits(a.Time) != math.Float64bits(b.Time) {
		t.Errorf("%s: time %v != %v", name, a.Time, b.Time)
	}
	if a.Activations != b.Activations || a.Moves != b.Moves {
		t.Errorf("%s: counters (%d,%d) != (%d,%d)", name,
			a.Activations, a.Moves, b.Activations, b.Moves)
	}
	if len(a.Final) != len(b.Final) {
		t.Fatalf("%s: final length %d != %d", name, len(a.Final), len(b.Final))
	}
	for i := range a.Final {
		if a.Final[i] != b.Final[i] {
			t.Errorf("%s: final loads differ at bin %d: %d != %d", name, i, a.Final[i], b.Final[i])
			break
		}
	}
	if math.Float64bits(a.Phases.LogBalanced) != math.Float64bits(b.Phases.LogBalanced) ||
		math.Float64bits(a.Phases.OneBalanced) != math.Float64bits(b.Phases.OneBalanced) ||
		math.Float64bits(a.Phases.Perfect) != math.Float64bits(b.Phases.Perfect) {
		t.Errorf("%s: phases %+v != %+v", name, a.Phases, b.Phases)
	}
}

// TestShardedSingleShardByteIdenticalToDirect pins the P = 1 degenerate
// case of the sharded engine to the direct engine: same RNG stream, same
// draw order, same per-activation stop granularity — the fixed-seed
// output must match bit for bit across placements and target kinds (the
// shared grid in enginepair_test.go).
func TestShardedSingleShardByteIdenticalToDirect(t *testing.T) {
	testEnginePairByteIdentical(t, nil,
		[]Option{WithEngineMode(ShardedEngine), WithShards(1)})
}

// TestShardedSingleShardTracedMatchesDirect extends the byte-identity to
// traced runs: with P = 1 trace points land at the same activations.
func TestShardedSingleShardTracedMatchesDirect(t *testing.T) {
	dres, dtr, err := New(24, 192, WithSeed(13)).RunTraced(40)
	if err != nil {
		t.Fatal(err)
	}
	sres, str, err := New(24, 192, WithSeed(13), WithEngineMode(ShardedEngine), WithShards(1)).RunTraced(40)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "traced", dres, sres)
	if len(dtr) != len(str) {
		t.Fatalf("trace lengths %d != %d", len(dtr), len(str))
	}
	for i := range dtr {
		if dtr[i] != str[i] {
			t.Fatalf("trace point %d: %+v != %+v", i, dtr[i], str[i])
		}
	}
}

func TestShardedRunnerBalances(t *testing.T) {
	res, err := New(64, 512, WithSeed(5), WithEngineMode(ShardedEngine), WithShards(4)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("did not balance")
	}
	if res.Disc >= 1 {
		t.Fatalf("final disc = %g", res.Disc)
	}
	// Stop conditions fire at barriers, where the phase observer also
	// runs: the perfect crossing must coincide with the stop time.
	if res.Phases.Perfect != res.Time {
		t.Errorf("perfect phase time %g != stop time %g", res.Phases.Perfect, res.Time)
	}
}

// Option-rejection coverage for the sharded engines lives in
// TestOptionValidationErrorMessages (enginemode_test.go), which pins the
// exact error messages per mode.

func TestShardedEngineModeString(t *testing.T) {
	if ShardedEngine.String() != "sharded" {
		t.Fatalf("mode string: %q", ShardedEngine)
	}
}

// TestSessionShardedMode drives the full churn surface in sharded mode:
// joins and leaves hash into the owning shard with no rebuild.
func TestSessionShardedMode(t *testing.T) {
	s := newSession(t, Spec{Mode: ShardedEngine, Shards: 4}, 16, 42)
	if s.Mode() != ShardedEngine {
		t.Fatal("mode not recorded")
	}
	for i := 0; i < 160; i++ {
		s.AddBallRandom()
	}
	ok, err := s.RunUntilPerfect(10_000_000)
	if err != nil || !ok {
		t.Fatalf("balance failed: %v", err)
	}
	for i := 0; i < 40; i++ {
		if err := s.AddBall(i % 16); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RemoveRandomBall(); err != nil {
			t.Fatal(err)
		}
		if err := s.RunFor(0.5); err != nil {
			t.Fatal(err)
		}
	}
	if s.M() != 160 {
		t.Fatalf("m = %d after balanced churn", s.M())
	}
	if ok, err := s.RunUntilPerfect(10_000_000); err != nil || !ok {
		t.Fatalf("rebalance failed: %v", err)
	}
	if s.Disc() >= 1 {
		t.Fatalf("disc = %g", s.Disc())
	}
}

// TestSessionShardedSingleShardMatchesDirect extends the P = 1
// byte-identity through the session surface: identical churn histories
// must leave identical engines.
func TestSessionShardedSingleShardMatchesDirect(t *testing.T) {
	drive := func(s *Session) {
		for i := 0; i < 96; i++ {
			s.AddBallRandom()
		}
		if ok, err := s.RunUntilPerfect(1_000_000); err != nil || !ok {
			t.Fatalf("balance failed: %v", err)
		}
		for i := 0; i < 30; i++ {
			if err := s.AddBall(i % 12); err != nil {
				t.Fatal(err)
			}
			if _, err := s.RemoveRandomBall(); err != nil {
				t.Fatal(err)
			}
			if err := s.RunFor(0.25); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := NewSession(12, 77)
	drive(d)
	sh := newSession(t, Spec{Mode: ShardedEngine, Shards: 1}, 12, 77)
	drive(sh)
	if math.Float64bits(d.Time()) != math.Float64bits(sh.Time()) {
		t.Errorf("time %v != %v", d.Time(), sh.Time())
	}
	if d.Activations() != sh.Activations() || d.Moves() != sh.Moves() {
		t.Errorf("counters (%d,%d) != (%d,%d)", d.Activations(), d.Moves(), sh.Activations(), sh.Moves())
	}
	dl, sl := d.Loads(), sh.Loads()
	for i := range dl {
		if dl[i] != sl[i] {
			t.Fatalf("loads differ at bin %d", i)
		}
	}
}
