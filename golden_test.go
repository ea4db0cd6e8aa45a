package rls

// golden_test.go pins the engines' fixed-seed outputs byte-for-byte.
// Refactors of an engine must not perturb its path: neither the order nor
// the number of RNG draws, nor any statistic of the run. The expected
// values below must never be regenerated casually — a mismatch means an
// engine's behaviour changed.
//
// They were re-pinned once, in the change that replaced the
// inverse-transform exponential and the polar normal in internal/rng with
// 256-layer ziggurat samplers (and re-tuned the Erlang sum cutoff). That
// change maps the same random words to different variates of the same
// law, so every fixed-seed trajectory moved while no law did: the
// kernel's own law tests (internal/rng), the exact-E[T] gate
// (exact_test.go) and the engine-vs-engine KS gates all passed unchanged
// across it, and internal/rng's TestKernelStreamPin now catches kernel
// drift before these goldens do. The jump goldens alone were re-pinned a
// second time when a jump move's time became one Exp gap and the null
// activations one Poisson tally per run, in place of a Geometric block
// length and an Erlang gap per move: again a new stream of the same
// law, with every direct golden unchanged.

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// goldenHash condenses a load vector into a stable 64-bit fingerprint.
func goldenHash(loads []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range loads {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// goldenTime renders a float64 exactly (IEEE bits in hex) so comparisons
// are byte-identical, not approximate.
func goldenTime(t float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(t))
}

func TestGoldenDirectRuns(t *testing.T) {
	cases := []struct {
		name    string
		run     func() (Result, error)
		time    string
		acts    int64
		moves   int64
		loadSum uint64
	}{
		{
			name: "ball-list/n=32,m=256,seed=42",
			run: func() (Result, error) {
				return New(32, 256, WithSeed(42)).Run()
			},
			time:    "401dd5a971080d29",
			acts:    1978,
			moves:   562,
			loadSum: 0x79c21ec9e9d0c725,
		},
		{
			name: "strict/n=16,m=512,seed=3",
			run: func() (Result, error) {
				return New(16, 512, WithSeed(3), WithStrictTieRule()).Run()
			},
			time:    "400add9e2c447fca",
			acts:    1681,
			moves:   593,
			loadSum: 0x03fe746a4dfccb25,
		},
		{
			name: "random-placement/n=128,m=1024,seed=11",
			run: func() (Result, error) {
				return New(128, 1024, WithSeed(11), WithPlacement(Random())).Run()
			},
			time:    "40206ed8210dbaea",
			acts:    8393,
			moves:   836,
			loadSum: 0xc09bdb5e923cb325,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Reached {
				t.Fatal("did not reach target")
			}
			if got := goldenTime(res.Time); got != c.time {
				t.Errorf("time bits = %s, want %s (t=%v)", got, c.time, res.Time)
			}
			if res.Activations != c.acts {
				t.Errorf("activations = %d, want %d", res.Activations, c.acts)
			}
			if res.Moves != c.moves {
				t.Errorf("moves = %d, want %d", res.Moves, c.moves)
			}
			if got := goldenHash(res.Final); got != c.loadSum {
				t.Errorf("final loads hash = %#x, want %#x", got, c.loadSum)
			}
		})
	}
}

// TestGoldenJumpVariants pins the plain, strict and graph jump engines'
// fixed-seed outputs. These guard the PR 6 machinery — the tie-gap level
// index and the per-source admissible structure — the same way the direct
// goldens guard the activation path: a mismatch means the variant's draw
// order or weight bookkeeping changed.
func TestGoldenJumpVariants(t *testing.T) {
	cases := []struct {
		name    string
		run     func() (Result, error)
		time    string
		acts    int64
		moves   int64
		loadSum uint64
	}{
		{
			name: "strict-jump/n=32,m=256,seed=42",
			run: func() (Result, error) {
				return New(32, 256, WithSeed(42), WithEngineMode(JumpEngine), WithStrictTieRule()).Run()
			},
			time:    "401d3c7fbd4a3bb6",
			acts:    1830,
			moves:   320,
			loadSum: 0x79c21ec9e9d0c725,
		},
		{
			name: "jump/all-in-one/n=64,m=4096,seed=21",
			run: func() (Result, error) {
				return New(64, 4096, WithSeed(21), WithEngineMode(JumpEngine)).Run()
			},
			time:    "4016179e3e5c9d43",
			acts:    22466,
			moves:   8055,
			loadSum: 0xf21978e6eba74b25,
		},
		{
			name: "jump/random/n=64,m=4096,seed=21",
			run: func() (Result, error) {
				return New(64, 4096, WithSeed(21), WithEngineMode(JumpEngine), WithPlacement(Random())).Run()
			},
			time:    "3ff67f89e56d8ce3",
			acts:    5771,
			moves:   765,
			loadSum: 0xf21978e6eba74b25,
		},
		{
			name: "strict-jump/all-in-one/n=64,m=4096,seed=23",
			run: func() (Result, error) {
				return New(64, 4096, WithSeed(23), WithEngineMode(JumpEngine), WithStrictTieRule()).Run()
			},
			time:    "40164dedc151afa8",
			acts:    23149,
			moves:   5123,
			loadSum: 0xf21978e6eba74b25,
		},
		{
			name: "ring-jump/n=32,m=64,seed=5",
			run: func() (Result, error) {
				return New(32, 64, WithSeed(5), WithEngineMode(JumpEngine), WithTopology(RingTopology())).Run()
			},
			time:    "4060249b9c73c573",
			acts:    8182,
			moves:   2000,
			loadSum: 0x40789c74d104fb25,
		},
		{
			name: "torus-jump/n=16,m=64,seed=13",
			run: func() (Result, error) {
				return New(16, 64, WithSeed(13), WithEngineMode(JumpEngine), WithTopology(TorusTopology(4))).Run()
			},
			time:    "4025f15c25282577",
			acts:    692,
			moves:   242,
			loadSum: 0x0b0c357ea927a925,
		},
		{
			name: "hypercube-jump/n=32,m=128,seed=9",
			run: func() (Result, error) {
				return New(32, 128, WithSeed(9), WithEngineMode(JumpEngine), WithTopology(HypercubeTopology(5))).Run()
			},
			time:    "40312cf178c4c7ab",
			acts:    2209,
			moves:   552,
			loadSum: 0x072f1a1fb8392f25,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Reached {
				t.Fatal("did not reach target")
			}
			if got := goldenTime(res.Time); got != c.time {
				t.Errorf("time bits = %s, want %s (t=%v)", got, c.time, res.Time)
			}
			if res.Activations != c.acts {
				t.Errorf("activations = %d, want %d", res.Activations, c.acts)
			}
			if res.Moves != c.moves {
				t.Errorf("moves = %d, want %d", res.Moves, c.moves)
			}
			if got := goldenHash(res.Final); got != c.loadSum {
				t.Errorf("final loads hash = %#x, want %#x", got, c.loadSum)
			}
		})
	}
}

// TestGoldenSessionChurn pins a direct-mode session interleaving churn with
// protocol execution: the full AddBall/RemoveBall/RandomBin/Run pipeline.
func TestGoldenSessionChurn(t *testing.T) {
	s := NewSession(16, 99)
	for i := 0; i < 128; i++ {
		s.AddBallRandom()
	}
	if ok, err := s.RunUntilPerfect(1_000_000); err != nil || !ok {
		t.Fatalf("initial balance failed: %v", err)
	}
	for i := 0; i < 50; i++ {
		if err := s.AddBall(i % 16); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RemoveRandomBall(); err != nil {
			t.Fatal(err)
		}
		if err := s.RunFor(0.25); err != nil {
			t.Fatal(err)
		}
	}
	const (
		wantTime  = "402cb132db883cb2"
		wantActs  = int64(1860)
		wantMoves = int64(462)
		wantHash  = uint64(0x044fac3af0245eeb)
	)
	if got := goldenTime(s.Time()); got != wantTime {
		t.Errorf("time bits = %s, want %s (t=%v)", got, wantTime, s.Time())
	}
	if s.Activations() != wantActs {
		t.Errorf("activations = %d, want %d", s.Activations(), wantActs)
	}
	if s.Moves() != wantMoves {
		t.Errorf("moves = %d, want %d", s.Moves(), wantMoves)
	}
	if got := goldenHash(s.Loads()); got != wantHash {
		t.Errorf("loads hash = %#x, want %#x", got, wantHash)
	}
}

// TestGoldenJumpSessionChurn is TestGoldenSessionChurn's jump-mode twin:
// churn interleaved with RunFor and RunUntilPerfect on a session whose
// departures draw through the level index's SampleBallBin. It pins the
// jump engine's churn path end to end, including the first
// RemoveRandomBall of a session that has only added balls and run.
func TestGoldenJumpSessionChurn(t *testing.T) {
	s, err := Spec{Mode: JumpEngine}.NewSession(16, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		s.AddBallRandom()
	}
	if ok, err := s.RunUntilPerfect(1_000_000); err != nil || !ok {
		t.Fatalf("initial balance failed: %v", err)
	}
	for i := 0; i < 50; i++ {
		if err := s.AddBall(i % 16); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RemoveRandomBall(); err != nil {
			t.Fatal(err)
		}
		if err := s.RunFor(0.25); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			for j := 0; j < 40; j++ {
				if err := s.AddBall(0); err != nil {
					t.Fatal(err)
				}
			}
			if ok, err := s.RunUntilPerfect(1_000_000); err != nil || !ok {
				t.Fatalf("round %d: rebalance failed: %v", i, err)
			}
		}
	}
	const (
		wantTime  = "40387ec2f52207b9"
		wantActs  = int64(5319)
		wantMoves = int64(1373)
		wantHash  = uint64(0x66a8355a347bdc25)
	)
	if got := goldenTime(s.Time()); got != wantTime {
		t.Errorf("time bits = %s, want %s (t=%v)", got, wantTime, s.Time())
	}
	if s.Activations() != wantActs {
		t.Errorf("activations = %d, want %d", s.Activations(), wantActs)
	}
	if s.Moves() != wantMoves {
		t.Errorf("moves = %d, want %d", s.Moves(), wantMoves)
	}
	if got := goldenHash(s.Loads()); got != wantHash {
		t.Errorf("loads hash = %#x, want %#x", got, wantHash)
	}
}
