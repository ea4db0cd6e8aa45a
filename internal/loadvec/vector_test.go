package loadvec

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBallsAvg(t *testing.T) {
	v := Vector{3, 1, 2}
	if v.Balls() != 6 {
		t.Errorf("Balls = %d", v.Balls())
	}
	if v.Avg() != 2 {
		t.Errorf("Avg = %g", v.Avg())
	}
	var empty Vector
	if empty.Avg() != 0 {
		t.Error("empty Avg != 0")
	}
}

func TestMinMax(t *testing.T) {
	v := Vector{5, 0, 3}
	min, max := v.MinMax()
	if min != 0 || max != 5 {
		t.Errorf("MinMax = (%d, %d)", min, max)
	}
}

func TestDisc(t *testing.T) {
	cases := []struct {
		v    Vector
		want float64
	}{
		{Vector{2, 2, 2}, 0},
		{Vector{3, 2, 1}, 1},
		{Vector{6, 0, 0}, 4},     // avg 2, max dev 4
		{Vector{0, 6, 0}, 4},     // position-independent
		{Vector{1, 2}, 0.5},      // fractional avg 1.5
		{Vector{0, 0, 0, 4}, 3},  // avg 1
		{Vector{1, 1, 1, 1}, 0},  // perfect
		{Vector{2, 1, 1, 0}, 1},  // avg 1
		{Vector{5, 4}, 0.5},      // avg 4.5
		{Vector{10, 0, 5, 5}, 5}, // avg 5, below dev 5 dominates
	}
	for _, c := range cases {
		if got := c.v.Disc(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Disc(%v) = %g, want %g", c.v, got, c.want)
		}
	}
}

func TestIsPerfect(t *testing.T) {
	cases := []struct {
		v    Vector
		want bool
	}{
		{Vector{2, 2, 2}, true},
		{Vector{2, 1, 2}, true},  // n∤m, loads {1,2}, disc < 1
		{Vector{3, 1, 2}, false}, // disc = 1
		{Vector{1, 2}, true},     // avg 1.5
		{Vector{0, 3}, false},
		{Vector{7}, true}, // single bin is always perfect
	}
	for _, c := range cases {
		if got := c.v.IsPerfect(); got != c.want {
			t.Errorf("IsPerfect(%v) = %v, want %v (disc=%g)", c.v, got, c.want, c.v.Disc())
		}
	}
}

// IsPerfect must agree with the definition disc < 1 on random vectors.
func TestIsPerfectMatchesDefinition(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(20)
		v := make(Vector, n)
		for i := range v {
			v[i] = r.Intn(5)
		}
		return v.IsPerfect() == (v.Disc() < 1)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOverloadedBallsEqualsHoles(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(20)
		v := make(Vector, n)
		for i := range v {
			v[i] = r.Intn(10)
		}
		return math.Abs(v.OverloadedBalls()-v.Holes()) < 1e-9
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOverloadedBallsFigure3Example(t *testing.T) {
	// The paper (§6.2) says the configuration of Figure 3 (left) has 6
	// overloaded balls. Reconstruct its shape: 16 bins, average 4,
	// loads: bins at 4±{2,1,...} — we use the stated x=2 reshaped version:
	// 8 bins at 6 and 8 bins at 2 would give 16... the *reshaped* right
	// side has overloaded balls 8·2=16. Instead verify a hand-computed
	// case: loads {6,5,4,4,3,2} avg 4 → overloaded = 2+1 = 3 = holes 1+2.
	v := Vector{6, 5, 4, 4, 3, 2}
	if got := v.OverloadedBalls(); got != 3 {
		t.Errorf("OverloadedBalls = %g, want 3", got)
	}
	if got := v.Holes(); got != 3 {
		t.Errorf("Holes = %g, want 3", got)
	}
}

func TestAboveBelow(t *testing.T) {
	v := Vector{6, 5, 4, 4, 3, 2} // avg 4
	h, r, k := v.AboveBelow()
	if h != 2 || r != 2 || k != 2 {
		t.Errorf("AboveBelow = (%d,%d,%d), want (2,2,2)", h, r, k)
	}
	// Fractional average: avg = 7/3; loads 3 above, 2 below, 2 below.
	v2 := Vector{3, 2, 2}
	h2, r2, k2 := v2.AboveBelow()
	if h2 != 1 || r2 != 0 || k2 != 2 {
		t.Errorf("AboveBelow = (%d,%d,%d), want (1,0,2)", h2, r2, k2)
	}
}

func TestSortedDesc(t *testing.T) {
	v := Vector{1, 3, 2}
	s := v.SortedDesc()
	if !s.Equal(Vector{3, 2, 1}) {
		t.Errorf("SortedDesc = %v", s)
	}
	if !v.Equal(Vector{1, 3, 2}) {
		t.Error("SortedDesc modified the receiver")
	}
}

func TestEqualAsMultiset(t *testing.T) {
	if !(Vector{1, 2, 3}).EqualAsMultiset(Vector{3, 1, 2}) {
		t.Error("permuted vectors should be multiset-equal")
	}
	if (Vector{1, 2, 3}).EqualAsMultiset(Vector{1, 2, 4}) {
		t.Error("different multisets reported equal")
	}
	if (Vector{1, 2}).EqualAsMultiset(Vector{1, 2, 0}) {
		t.Error("different lengths reported equal")
	}
}

func TestValidate(t *testing.T) {
	if err := (Vector{1, 2}).Validate(3); err != nil {
		t.Errorf("valid vector rejected: %v", err)
	}
	if err := (Vector{1, 2}).Validate(4); err == nil {
		t.Error("wrong ball count accepted")
	}
	if err := (Vector{-1, 5}).Validate(4); err == nil {
		t.Error("negative load accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	v := Vector{1, 2}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares memory")
	}
}

// OverloadedBalls returns Σ_i max{0, ℓ_i − ∅}, the paper's "number of
// overloaded balls" (equal to the number of holes Σ_i max{0, ∅ − ℓ_i}).
// For n | m this is an integer.
func (v Vector) OverloadedBalls() float64 {
	avg := v.Avg()
	sum := 0.0
	for _, x := range v {
		if f := float64(x) - avg; f > 0 {
			sum += f
		}
	}
	return sum
}

// Holes returns Σ_i max{0, ∅ − ℓ_i}. Always equals OverloadedBalls
// because Σ (ℓ_i − ∅) = 0.
func (v Vector) Holes() float64 {
	avg := v.Avg()
	sum := 0.0
	for _, x := range v {
		if f := avg - float64(x); f > 0 {
			sum += f
		}
	}
	return sum
}

// AboveBelow returns (h, r, k): the number of bins with load strictly
// above, exactly at, and strictly below the average. Comparisons use the
// exact rational test n·ℓ_i vs m, so fractional averages are handled
// without floating-point error. These are the quantities of Lemma 16's
// potential function 3A − k − h.
func (v Vector) AboveBelow() (h, r, k int) {
	n := len(v)
	m := v.Balls()
	for _, x := range v {
		switch {
		case x*n > m:
			h++
		case x*n < m:
			k++
		default:
			r++
		}
	}
	return
}

// EqualAsMultiset reports whether v and w have the same loads up to bin
// relabeling. RLS is ignorant of bin order, so this is the natural
// equality for configurations.
func (v Vector) EqualAsMultiset(w Vector) bool {
	return v.SortedDesc().Equal(w.SortedDesc())
}
