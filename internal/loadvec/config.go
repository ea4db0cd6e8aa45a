package loadvec

import "fmt"

// Config is a load configuration with O(1) per-move incremental tracking
// of the statistics the experiments sample constantly: min/max load
// (hence discrepancy and perfect balance), the above/at/below-average bin
// counts h/r/k, and the number of overloaded balls A.
//
// Moves change one bin by −1 and another by +1, so every tracked quantity
// can be updated by inspecting only the two touched bins. A run of n²
// activations therefore costs O(n²) total bookkeeping instead of O(n³).
//
// Config supports arbitrary moves, including the destructive moves of
// Lemma 2 (which can push loads above the initial maximum); the internal
// load histogram grows on demand.
type Config struct {
	loads Vector
	n, m  int

	count    []int // count[v] = number of bins with load v
	min, max int

	// Classification vs the average, using the exact test n·ℓ_i vs m.
	h, k int // bins strictly above / strictly below average
	// sumOver = Σ_{i: ℓ_i > ∅} ℓ_i, to derive overloaded balls without a
	// scan: A = sumOver − h·∅ (exactly (n·sumOver − h·m)/n).
	sumOver int

	// idx is the opt-in level index for the rejection-free jump engine
	// (see levelindex.go); nil unless EnableLevelIndex was called.
	idx *levelIndex
}

// NewConfig wraps a copy of the given load vector. It panics on an empty
// or negative-load vector.
func NewConfig(v Vector) *Config {
	if len(v) == 0 {
		panic("loadvec: NewConfig with empty vector")
	}
	c := &Config{
		loads: v.Clone(),
		n:     len(v),
	}
	maxLoad := 0
	for i, x := range v {
		if x < 0 {
			panic(fmt.Sprintf("loadvec: NewConfig with negative load at bin %d", i))
		}
		c.m += x
		if x > maxLoad {
			maxLoad = x
		}
	}
	c.count = make([]int, maxLoad+2)
	c.min, c.max = v[0], v[0]
	for _, x := range v {
		c.count[x]++
		if x < c.min {
			c.min = x
		}
		if x > c.max {
			c.max = x
		}
	}
	for _, x := range v {
		switch {
		case x*c.n > c.m:
			c.h++
			c.sumOver += x
		case x*c.n < c.m:
			c.k++
		}
	}
	return c
}

// N returns the number of bins.
func (c *Config) N() int { return c.n }

// M returns the number of balls.
func (c *Config) M() int { return c.m }

// Avg returns the average load ∅ = m/n.
func (c *Config) Avg() float64 { return float64(c.m) / float64(c.n) }

// Load returns the load of bin i.
func (c *Config) Load(i int) int { return c.loads[i] }

// Loads returns the internal load vector. The caller must not modify it;
// use Snapshot for a copy.
func (c *Config) Loads() Vector { return c.loads }

// Snapshot returns a copy of the current load vector.
func (c *Config) Snapshot() Vector { return c.loads.Clone() }

// Min returns the minimum load.
func (c *Config) Min() int { return c.min }

// Max returns the maximum load.
func (c *Config) Max() int { return c.max }

// Disc returns the discrepancy max(max−∅, ∅−min).
func (c *Config) Disc() float64 {
	avg := c.Avg()
	hi := float64(c.max) - avg
	lo := avg - float64(c.min)
	if hi > lo {
		return hi
	}
	return lo
}

// IsPerfect reports perfect balance (disc < 1 ⟺ max−min ≤ 1; see
// Vector.IsPerfect).
func (c *Config) IsPerfect() bool { return c.max-c.min <= 1 }

// IsBalanced reports x-balancedness.
func (c *Config) IsBalanced(x float64) bool { return c.Disc() <= x }

// AboveBelow returns (h, r, k): bins strictly above / at / strictly below
// the average.
func (c *Config) AboveBelow() (h, r, k int) {
	return c.h, c.n - c.h - c.k, c.k
}

// OverloadedBalls returns A = Σ_i max{0, ℓ_i − ∅}.
func (c *Config) OverloadedBalls() float64 {
	return float64(c.sumOver) - float64(c.h)*c.Avg()
}

// Potential returns Lemma 16's potential function 3A − k − h
// (meaningful when ∅ is an integer, where A is integral).
func (c *Config) Potential() float64 {
	return 3*c.OverloadedBalls() - float64(c.k) - float64(c.h)
}

// CountAt returns the number of bins currently holding exactly load v.
func (c *Config) CountAt(v int) int {
	if v < 0 || v >= len(c.count) {
		return 0
	}
	return c.count[v]
}

// Move transfers one ball from bin src to bin dst, updating all tracked
// statistics in O(1). It panics if src has no ball or src == dst.
// Move performs no legality check — protocol rules (RLS, destructive,
// baseline) are enforced by the callers — so it can express both protocol
// moves and the adversarial destructive moves of Lemma 2.
func (c *Config) Move(src, dst int) {
	if src == dst {
		panic("loadvec: Move with src == dst")
	}
	v := c.loads[src]
	if v == 0 {
		panic("loadvec: Move from empty bin")
	}
	w := c.loads[dst]

	c.declassify(v)
	c.declassify(w)

	// Histogram and loads.
	c.count[v]--
	c.count[v-1]++
	c.loads[src] = v - 1
	if w+2 >= len(c.count) {
		c.growCount(w + 2)
	}
	c.count[w]--
	c.count[w+1]++
	c.loads[dst] = w + 1

	c.classify(v - 1)
	c.classify(w + 1)

	// Min/max maintenance. Loads move by ±1, and the bin leaving an
	// extreme level lands on the adjacent level, so each extreme moves by
	// at most one per call.
	if v-1 < c.min {
		c.min = v - 1
	} else if c.count[c.min] == 0 {
		c.min++
	}
	if w+1 > c.max {
		c.max = w + 1
	} else if c.count[c.max] == 0 {
		c.max--
	}

	if c.idx != nil {
		c.idx.move(src, v, dst, w)
		c.idx.shrink(c.max)
	}
}

// AddBall inserts one ball into bin (a dynamic arrival), updating every
// tracked statistic in O(1). Changing m shifts the average by 1/n, so
// besides the touched bin only the bins sitting exactly on the old or new
// average can change classification; their counts are read off the load
// histogram instead of rescanning the vector.
func (c *Config) AddBall(bin int) {
	v := c.loads[bin]
	// Take the touched bin out of the histogram and classification so the
	// average-crossing adjustment below covers exactly the other n−1 bins.
	c.count[v]--
	c.declassify(v)
	// m → m+1: a level w flips above→at iff w·n == m+1 and at→below iff
	// w·n == m, i.e. only when n divides m+1 resp. m.
	if (c.m+1)%c.n == 0 {
		w := (c.m + 1) / c.n
		if cnt := c.CountAt(w); cnt > 0 {
			c.h -= cnt
			c.sumOver -= w * cnt
		}
	}
	if c.m%c.n == 0 {
		c.k += c.CountAt(c.m / c.n)
	}
	c.m++
	if v+2 >= len(c.count) {
		c.growCount(v + 2)
	}
	c.count[v+1]++
	c.loads[bin] = v + 1
	c.classify(v + 1)
	if v+1 > c.max {
		c.max = v + 1
	}
	if v == c.min && c.count[v] == 0 {
		c.min = v + 1
	}
	if c.idx != nil {
		c.idx.transition(bin, v, v+1)
	}
}

// RemoveBall removes one ball from bin (a dynamic departure), updating
// every tracked statistic in O(1) by the same histogram-crossing argument
// as AddBall. It panics if the bin is empty.
func (c *Config) RemoveBall(bin int) {
	v := c.loads[bin]
	if v == 0 {
		panic("loadvec: RemoveBall from empty bin")
	}
	c.count[v]--
	c.declassify(v)
	// m → m−1: a level w flips at→above iff w·n == m and below→at iff
	// w·n == m−1.
	if c.m%c.n == 0 {
		w := c.m / c.n
		if cnt := c.CountAt(w); cnt > 0 {
			c.h += cnt
			c.sumOver += w * cnt
		}
	}
	if (c.m-1)%c.n == 0 {
		c.k -= c.CountAt((c.m - 1) / c.n)
	}
	c.m--
	c.count[v-1]++
	c.loads[bin] = v - 1
	c.classify(v - 1)
	if v-1 < c.min {
		c.min = v - 1
	}
	if v == c.max && c.count[v] == 0 {
		c.max = v - 1
	}
	if c.idx != nil {
		c.idx.transition(bin, v, v-1)
		c.idx.shrink(c.max)
	}
}

// declassify removes one bin at load v from the h/k/sumOver accounting.
func (c *Config) declassify(v int) {
	switch {
	case v*c.n > c.m:
		c.h--
		c.sumOver -= v
	case v*c.n < c.m:
		c.k--
	}
}

// classify adds one bin at load v to the h/k/sumOver accounting.
func (c *Config) classify(v int) {
	switch {
	case v*c.n > c.m:
		c.h++
		c.sumOver += v
	case v*c.n < c.m:
		c.k++
	}
}

func (c *Config) growCount(need int) {
	newLen := 2 * len(c.count)
	if newLen <= need {
		newLen = need + 1
	}
	nc := make([]int, newLen)
	copy(nc, c.count)
	c.count = nc
}

// Validate recomputes every tracked statistic from scratch and returns an
// error if any cached value disagrees. Tests call this after randomized
// move sequences.
func (c *Config) Validate() error {
	if err := c.loads.Validate(c.m); err != nil {
		return err
	}
	fresh := NewConfig(c.loads)
	if fresh.min != c.min || fresh.max != c.max {
		return fmt.Errorf("loadvec: cached min/max (%d,%d) != fresh (%d,%d)",
			c.min, c.max, fresh.min, fresh.max)
	}
	if fresh.h != c.h || fresh.k != c.k || fresh.sumOver != c.sumOver {
		return fmt.Errorf("loadvec: cached h/k/sumOver (%d,%d,%d) != fresh (%d,%d,%d)",
			c.h, c.k, c.sumOver, fresh.h, fresh.k, fresh.sumOver)
	}
	for v := 0; v < len(c.count) || v < len(fresh.count); v++ {
		var a, b int
		if v < len(c.count) {
			a = c.count[v]
		}
		if v < len(fresh.count) {
			b = fresh.count[v]
		}
		if a != b {
			return fmt.Errorf("loadvec: histogram mismatch at load %d: %d vs %d", v, a, b)
		}
	}
	return c.validateIndex()
}

// Clone returns an independent deep copy of the configuration.
func (c *Config) Clone() *Config {
	cp := *c
	cp.loads = c.loads.Clone()
	cp.count = append([]int(nil), c.count...)
	if c.idx != nil {
		cp.idx = c.idx.clone()
	}
	return &cp
}

// String summarizes the configuration.
func (c *Config) String() string {
	return fmt.Sprintf("Config{n=%d m=%d min=%d max=%d disc=%.2f}",
		c.n, c.m, c.min, c.max, c.Disc())
}
