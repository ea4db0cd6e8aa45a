package loadvec

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewConfigStats(t *testing.T) {
	c := NewConfig(Vector{6, 5, 4, 4, 3, 2})
	if c.N() != 6 || c.M() != 24 {
		t.Fatalf("n/m = %d/%d", c.N(), c.M())
	}
	if c.Min() != 2 || c.Max() != 6 {
		t.Errorf("min/max = %d/%d", c.Min(), c.Max())
	}
	if c.Disc() != 2 {
		t.Errorf("disc = %g", c.Disc())
	}
	h, r, k := c.AboveBelow()
	if h != 2 || r != 2 || k != 2 {
		t.Errorf("h/r/k = %d/%d/%d", h, r, k)
	}
	if c.OverloadedBalls() != 3 {
		t.Errorf("A = %g", c.OverloadedBalls())
	}
	if c.Potential() != 3*3-2-2 {
		t.Errorf("potential = %g", c.Potential())
	}
}

func TestConfigMoveBasic(t *testing.T) {
	c := NewConfig(Vector{3, 1})
	c.Move(0, 1)
	if c.Load(0) != 2 || c.Load(1) != 2 {
		t.Fatalf("loads after move: %v", c.Loads())
	}
	if !c.IsPerfect() {
		t.Error("should be perfect after equalizing")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigMovePanics(t *testing.T) {
	c := NewConfig(Vector{1, 0})
	for _, tc := range []struct {
		name     string
		src, dst int
	}{
		{"same bin", 0, 0},
		{"empty source", 1, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			c.Move(tc.src, tc.dst)
		}()
	}
}

func TestConfigDestructiveGrowth(t *testing.T) {
	// Destructive moves can push a bin far above the initial max; the
	// histogram must grow. Stack everything into bin 0.
	v := make(Vector, 8)
	for i := range v {
		v[i] = 2
	}
	c := NewConfig(v)
	for i := 1; i < 8; i++ {
		for c.Load(i) > 0 {
			c.Move(i, 0)
		}
	}
	if c.Load(0) != 16 || c.Max() != 16 || c.Min() != 0 {
		t.Fatalf("after stacking: %v (min=%d max=%d)", c.Loads(), c.Min(), c.Max())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigSnapshotIndependent(t *testing.T) {
	c := NewConfig(Vector{2, 0})
	s := c.Snapshot()
	c.Move(0, 1)
	if s[0] != 2 {
		t.Error("snapshot not independent")
	}
}

func TestConfigCloneIndependent(t *testing.T) {
	c := NewConfig(Vector{3, 1})
	d := c.Clone()
	c.Move(0, 1)
	if d.Load(0) != 3 || d.Load(1) != 1 {
		t.Error("clone not independent")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigCountAt(t *testing.T) {
	c := NewConfig(Vector{2, 2, 0, 1})
	if c.CountAt(2) != 2 || c.CountAt(0) != 1 || c.CountAt(1) != 1 {
		t.Error("CountAt wrong")
	}
	if c.CountAt(-1) != 0 || c.CountAt(100) != 0 {
		t.Error("CountAt out-of-range should be 0")
	}
}

// The central property test: after any random legal move sequence
// (including destructive ones), all incrementally tracked statistics match
// a from-scratch recomputation.
func TestConfigIncrementalMatchesFresh(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(12)
		v := make(Vector, n)
		for i := range v {
			v[i] = r.Intn(6)
		}
		if v.Balls() == 0 {
			v[0] = 1
		}
		c := NewConfig(v)
		for step := 0; step < 200; step++ {
			src := r.Intn(n)
			if c.Load(src) == 0 {
				continue
			}
			dst := r.Intn(n)
			if dst == src {
				continue
			}
			c.Move(src, dst)
		}
		return c.Validate() == nil
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// Discrepancy from Config must equal the Vector computation at all times.
func TestConfigDiscMatchesVector(t *testing.T) {
	r := rng.New(5)
	v := Vector{9, 0, 0, 3, 3, 3}
	c := NewConfig(v)
	for step := 0; step < 500; step++ {
		src := r.Intn(c.N())
		if c.Load(src) == 0 {
			continue
		}
		dst := r.Intn(c.N())
		if dst == src {
			continue
		}
		c.Move(src, dst)
		if math.Abs(c.Disc()-c.Loads().Disc()) > 1e-12 {
			t.Fatalf("disc mismatch at step %d: %g vs %g", step, c.Disc(), c.Loads().Disc())
		}
		if c.IsPerfect() != c.Loads().IsPerfect() {
			t.Fatalf("IsPerfect mismatch at step %d", step)
		}
	}
}

func TestConfigOverloadedScaled(t *testing.T) {
	c := NewConfig(Vector{3, 2, 2, 1}) // avg 2, A = 1
	if c.OverloadedBalls() != 1 {
		t.Errorf("A = %g, want 1", c.OverloadedBalls())
	}
	// Fractional average: avg 5/3, loads {3,1,1}: A = 3 - 5/3 = 4/3.
	c2 := NewConfig(Vector{3, 1, 1})
	if math.Abs(c2.OverloadedBalls()-4.0/3) > 1e-12 {
		t.Errorf("A = %g, want 4/3", c2.OverloadedBalls())
	}
}

func TestNewConfigPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    Vector
	}{
		{"empty", Vector{}},
		{"negative", Vector{1, -1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			NewConfig(tc.v)
		}()
	}
}

func BenchmarkConfigMove(b *testing.B) {
	n := 1024
	v := make(Vector, n)
	for i := range v {
		v[i] = 16
	}
	c := NewConfig(v)
	r := rng.New(1)
	// Each iteration times a batch of move attempts, so a run at a tiny
	// -benchtime (bench.sh records 3x) still averages over thousands of
	// them; ns/op is reported per attempt.
	const batch = 4096
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			src := r.Intn(n)
			if c.Load(src) == 0 {
				continue
			}
			dst := r.Intn(n)
			if dst == src {
				continue
			}
			c.Move(src, dst)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/op")
}

func TestConfigAddRemoveBallBasics(t *testing.T) {
	c := NewConfig(Vector{2, 2, 2}) // avg 2
	c.AddBall(0)                    // {3,2,2}, avg 7/3
	if c.M() != 7 || c.Max() != 3 || c.Min() != 2 {
		t.Fatalf("after add: %v", c)
	}
	h, r, k := c.AboveBelow()
	if h != 1 || r != 0 || k != 2 {
		t.Errorf("h/r/k after add = %d/%d/%d, want 1/0/2", h, r, k)
	}
	c.RemoveBall(0) // back to {2,2,2}
	if c.M() != 6 || c.Max() != 2 || c.Min() != 2 {
		t.Fatalf("after remove: %v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigRemoveBallEmptyPanics(t *testing.T) {
	c := NewConfig(Vector{0, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("RemoveBall from empty bin did not panic")
		}
	}()
	c.RemoveBall(0)
}

func TestConfigRemoveToZeroBalls(t *testing.T) {
	c := NewConfig(Vector{1, 0, 0})
	c.RemoveBall(0)
	if c.M() != 0 || c.Min() != 0 || c.Max() != 0 {
		t.Fatalf("emptied config: %v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.AddBall(2)
	if c.M() != 1 || c.Max() != 1 {
		t.Fatalf("refilled config: %v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Interleaved churn and moves must keep every cached statistic identical
// to a freshly built Config — the invariant the churn-native engine
// depends on.
func TestConfigChurnProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(12)
		v := make(Vector, n)
		for i := range v {
			v[i] = r.Intn(6)
		}
		c := NewConfig(v)
		for op := 0; op < 200; op++ {
			switch r.Intn(3) {
			case 0:
				c.AddBall(r.Intn(n))
			case 1:
				if bin := randNonEmpty(c, r); bin >= 0 {
					c.RemoveBall(bin)
				}
			case 2:
				src := randNonEmpty(c, r)
				dst := r.Intn(n)
				if src >= 0 && dst != src {
					c.Move(src, dst)
				}
			}
			if err := c.Validate(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// randNonEmpty returns a uniformly random non-empty bin, or -1 if none.
func randNonEmpty(c *Config, r *rng.RNG) int {
	if c.M() == 0 {
		return -1
	}
	for {
		if bin := r.Intn(c.N()); c.Load(bin) > 0 {
			return bin
		}
	}
}

func BenchmarkConfigChurn(b *testing.B) {
	n := 1024
	v := make(Vector, n)
	for i := range v {
		v[i] = 16
	}
	c := NewConfig(v)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bin := r.Intn(n)
		c.AddBall(bin)
		dst := r.Intn(n)
		if c.Load(dst) == 0 {
			dst = bin // long runs can drift a bin to zero
		}
		c.RemoveBall(dst)
	}
}
