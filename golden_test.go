package rls

// golden_test.go pins the direct engine's fixed-seed outputs byte-for-byte.
// The jump-engine refactor must not perturb the direct path: neither the
// order nor the number of RNG draws, nor any statistic of the run. The
// expected values below were generated at the pre-refactor tree and must
// never be regenerated casually — a mismatch means the direct engine's
// behaviour changed.

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
			time:    "4021f9e4f9c8857d",
			acts:    2297,
			moves:   602,
			loadSum: 0x79c21ec9e9d0c725,
		},
		{
			name: "fenwick/n=64,m=64,seed=7",
			run: func() (Result, error) {
				return New(64, 64, WithSeed(7), WithFenwickEngine()).Run()
			},
			time:    "403139c351c247a1",
			acts:    1103,
			moves:   270,
			loadSum: 0x4ba8ea86dae40725,
		},
		{
			name: "strict/n=16,m=512,seed=3",
			run: func() (Result, error) {
				return New(16, 512, WithSeed(3), WithStrictTieRule()).Run()
			},
			time:    "40109ac468d8b5c7",
			acts:    2185,
			moves:   591,
			loadSum: 0x03fe746a4dfccb25,
		},
		{
			name: "random-placement/n=128,m=1024,seed=11",
			run: func() (Result, error) {
				return New(128, 1024, WithSeed(11), WithPlacement(Random())).Run()
			},
			time:    "403a106b57bfbd53",
			acts:    26794,
			moves:   1122,
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
			time:    "4015e9b7bd5e9fda",
			acts:    1386,
			moves:   320,
			loadSum: 0x79c21ec9e9d0c725,
		},
		{
			name: "jump/all-in-one/n=64,m=4096,seed=21",
			run: func() (Result, error) {
				return New(64, 4096, WithSeed(21), WithEngineMode(JumpEngine)).Run()
			},
			time:    "40122a08632b84f1",
			acts:    18664,
			moves:   7847,
			loadSum: 0xf21978e6eba74b25,
		},
		{
			name: "jump/random/n=64,m=4096,seed=21",
			run: func() (Result, error) {
				return New(64, 4096, WithSeed(21), WithEngineMode(JumpEngine), WithPlacement(Random())).Run()
			},
			time:    "3ff22e65a13e656c",
			acts:    4614,
			moves:   761,
			loadSum: 0xf21978e6eba74b25,
		},
		{
			name: "strict-jump/all-in-one/n=64,m=4096,seed=23",
			run: func() (Result, error) {
				return New(64, 4096, WithSeed(23), WithEngineMode(JumpEngine), WithStrictTieRule()).Run()
			},
			time:    "4014f183f5abf1e5",
			acts:    21541,
			moves:   5085,
			loadSum: 0xf21978e6eba74b25,
		},
		{
			name: "ring-jump/n=32,m=64,seed=5",
			run: func() (Result, error) {
				return New(32, 64, WithSeed(5), WithEngineMode(JumpEngine), WithTopology(RingTopology())).Run()
			},
			time:    "40560fa688bf11ca",
			acts:    5656,
			moves:   1530,
			loadSum: 0x40789c74d104fb25,
		},
		{
			name: "torus-jump/n=16,m=64,seed=13",
			run: func() (Result, error) {
				return New(16, 64, WithSeed(13), WithEngineMode(JumpEngine), WithTopology(TorusTopology(4))).Run()
			},
			time:    "401d39e96da10165",
			acts:    428,
			moves:   168,
			loadSum: 0x0b0c357ea927a925,
		},
		{
			name: "hypercube-jump/n=32,m=128,seed=9",
			run: func() (Result, error) {
				return New(32, 128, WithSeed(9), WithEngineMode(JumpEngine), WithTopology(HypercubeTopology(5))).Run()
			},
			time:    "4030bb506d17982d",
			acts:    2124,
			moves:   522,
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
		wantTime  = "402e33c43bc4414a"
		wantActs  = int64(1904)
		wantMoves = int64(429)
		wantHash  = uint64(0x0fbf28e4e8bb0185)
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
		wantTime  = "40379082be10f64d"
		wantActs  = int64(4964)
		wantMoves = int64(1247)
		wantHash  = uint64(0x3c6a04d653d94c25)
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
