package loadvec

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fenwick"
	"repro/internal/persist"
	"repro/internal/rng"
)

// TestBallIndexTracksFullIndex drives a ball-sampling-only index and a
// full one through the same moves, destructive moves and churn from an
// all-in-one start (so both grow and shrink), and checks after every op
// that both validate, encode to the same bytes, and draw the same
// SampleBallBin bins from equal streams.
func TestBallIndexTracksFullIndex(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(20)
		v := make(Vector, n)
		v[0] = 4 * n
		full, ball := NewConfig(v), NewConfig(v)
		full.EnableLevelIndex()
		ball.EnableBallIndex()
		if ball.MoveWeightIndexed() || !full.MoveWeightIndexed() || !ball.LevelIndexed() || ball.TieGap() != 1 {
			t.Fatalf("shapes: ball weighted %v, full weighted %v, ball indexed %v gap %d",
				ball.MoveWeightIndexed(), full.MoveWeightIndexed(), ball.LevelIndexed(), ball.TieGap())
		}
		for step := 0; step < 400; step++ {
			src, dst := r.Intn(n), r.Intn(n)
			switch r.Intn(4) {
			case 0, 1:
				if src != dst && full.Load(src) > 0 {
					full.Move(src, dst)
					ball.Move(src, dst)
				}
			case 2:
				full.AddBall(dst)
				ball.AddBall(dst)
			case 3:
				if full.Load(src) > 0 && full.M() > 1 {
					full.RemoveBall(src)
					ball.RemoveBall(src)
				}
			}
			for name, c := range map[string]*Config{"full": full, "ball": ball} {
				if err := c.Validate(); err != nil {
					t.Fatalf("trial %d step %d %s: %v", trial, step, name, err)
				}
			}
			if !bytes.Equal(encodeConfig(ball), encodeConfig(full)) {
				t.Fatalf("trial %d step %d: ball index encodes differently from the full one", trial, step)
			}
			seed := r.Uint64()
			if a, b := full.SampleBallBin(rng.New(seed)), ball.SampleBallBin(rng.New(seed)); a != b {
				t.Fatalf("trial %d step %d: SampleBallBin %d (full) vs %d (ball)", trial, step, a, b)
			}
		}
		if cp := ball.Clone(); cp.MoveWeightIndexed() || cp.Validate() != nil {
			t.Fatalf("trial %d: clone lost the ball-sampling-only shape", trial)
		}
	}
}

// TestBallIndexDecode round-trips a ball-sampling-only index through the
// shared payload and checks each decoder rebuilds its own shape, and that
// a strict payload cannot come back ball-sampling-only.
func TestBallIndexDecode(t *testing.T) {
	v := Vector{5, 0, 3, 3, 1, 0, 2, 9}
	c := NewConfig(v)
	c.EnableBallIndex()
	raw := encodeConfig(c)

	ball, err := DecodeBallConfigState(persist.NewDec(raw))
	if err != nil {
		t.Fatal(err)
	}
	full, err := DecodeConfigState(persist.NewDec(raw))
	if err != nil {
		t.Fatal(err)
	}
	if ball.MoveWeightIndexed() || !full.MoveWeightIndexed() {
		t.Fatalf("decoded shapes: ball weighted %v, full weighted %v", ball.MoveWeightIndexed(), full.MoveWeightIndexed())
	}
	for _, d := range []*Config{ball, full} {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeConfig(d), raw) {
			t.Fatal("decoded index re-encodes differently")
		}
	}

	strict := NewConfig(v)
	strict.EnableStrictLevelIndex()
	if _, err := DecodeBallConfigState(persist.NewDec(encodeConfig(strict))); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("strict payload as a ball index: err = %v, want ErrCorrupt", err)
	}
}

// TestBallIndexValidateCatchesStrayState checks Validate flags a bal leaf
// out of step with the lists and any move-weight state on a
// ball-sampling-only index. The ball tree is built (by one SampleBallBin)
// before corrupting, since an unbuilt one has no leaves to check.
func TestBallIndexValidateCatchesStrayState(t *testing.T) {
	fresh := func() *Config {
		c := NewConfig(Vector{2, 1, 4, 0})
		c.EnableBallIndex()
		c.SampleBallBin(rng.New(1))
		return c
	}
	for name, corrupt := range map[string]func(x *levelIndex){
		"bal leaf":  func(x *levelIndex) { x.bal.Add(2, 1) },
		"cum array": func(x *levelIndex) { x.cum = make([]int64, x.size) },
		"mvw tree":  func(x *levelIndex) { x.mvw = fenwick.New(x.size) },
		"mvw leaf": func(x *levelIndex) {
			x.mvw = fenwick.New(x.size)
			x.mvw.Add(2, 3) // a stray W = 3
		},
	} {
		c := fresh()
		corrupt(c.idx)
		if c.Validate() == nil {
			t.Errorf("%s: Validate passed a corrupted ball-sampling-only index", name)
		}
	}
}

func TestBallIndexPanics(t *testing.T) {
	ball := func() *Config {
		c := NewConfig(Vector{3, 0})
		c.EnableBallIndex()
		return c
	}
	for name, fn := range map[string]func(){
		"MoveWeight":     func() { ball().MoveWeight() },
		"SampleMovePair": func() { ball().SampleMovePair(rng.New(1)) },
		"full after ball": func() {
			c := ball()
			c.EnableLevelIndex()
		},
		"ball after full": func() {
			c := NewConfig(Vector{3, 0})
			c.EnableLevelIndex()
			c.EnableBallIndex()
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
