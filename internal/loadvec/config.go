package loadvec

import "fmt"

// Config is a load configuration that keeps, in O(1) per move or churn
// event, what every run reads: the loads, the load histogram and the
// min/max load (hence discrepancy and perfect balance), plus the jump
// engine's level index when enabled. Moves change one bin by −1 and
// another by +1, so each of these is updated by inspecting only the two
// touched bins.
//
// The statistics only the analysis reads — the above/at/below-average
// bin counts h/r/k, the overloaded balls A and Lemma 16's potential — are
// not kept: AboveBelow, OverloadedBalls and Potential scan the histogram
// between min and max on each call.
//
// Config supports arbitrary moves, including the destructive moves of
// Lemma 2 (which can push loads above the initial maximum); the internal
// load histogram grows on demand.
type Config struct {
	loads Vector
	n, m  int

	count    []int // count[v] = number of bins with load v
	min, max int

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

// classify scans the histogram over [min, max] and returns the bins
// strictly above and strictly below the average (the exact test n·ℓ vs
// m) and sumOver = Σ_{i: ℓ_i > ∅} ℓ_i. It costs O(max − min); nothing
// on an engine's per-move path calls it.
func (c *Config) classify() (h, k, sumOver int) {
	for v := c.min; v <= c.max; v++ {
		switch cnt := c.count[v]; {
		case v*c.n > c.m:
			h += cnt
			sumOver += v * cnt
		case v*c.n < c.m:
			k += cnt
		}
	}
	return h, k, sumOver
}

// AboveBelow returns (h, r, k): bins strictly above / at / strictly below
// the average. It is an analysis read, O(max − min).
func (c *Config) AboveBelow() (h, r, k int) {
	h, k, _ = c.classify()
	return h, c.n - h - k, k
}

// OverloadedBalls returns A = Σ_i max{0, ℓ_i − ∅}, computed as
// sumOver − h·∅. It is an analysis read, O(max − min).
func (c *Config) OverloadedBalls() float64 {
	h, _, sumOver := c.classify()
	return c.overloaded(h, sumOver)
}

func (c *Config) overloaded(h, sumOver int) float64 {
	return float64(sumOver) - float64(h)*c.Avg()
}

// Potential returns Lemma 16's potential function 3A − k − h
// (meaningful when ∅ is an integer, where A is integral). It is an
// analysis read, O(max − min).
func (c *Config) Potential() float64 {
	h, k, sumOver := c.classify()
	return 3*c.overloaded(h, sumOver) - float64(k) - float64(h)
}

// CountAt returns the number of bins currently holding exactly load v.
func (c *Config) CountAt(v int) int {
	if v < 0 || v >= len(c.count) {
		return 0
	}
	return c.count[v]
}

// Move transfers one ball from bin src to bin dst, updating the loads,
// histogram, extremes and level index in O(1). It panics if src has no
// ball or src == dst. Move performs no legality check — protocol rules
// (RLS, destructive, baseline) are enforced by the callers — so it can
// express both protocol moves and the adversarial destructive moves of
// Lemma 2.
func (c *Config) Move(src, dst int) {
	if src == dst {
		panic("loadvec: Move with src == dst")
	}
	v := c.loads[src]
	if v == 0 {
		panic("loadvec: Move from empty bin")
	}
	w := c.loads[dst]

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

// AddBall inserts one ball into bin (a dynamic arrival), updating the
// loads, histogram, extremes and level index in O(1).
func (c *Config) AddBall(bin int) {
	v := c.loads[bin]
	c.m++
	if v+2 >= len(c.count) {
		c.growCount(v + 2)
	}
	c.count[v]--
	c.count[v+1]++
	c.loads[bin] = v + 1
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
// the loads, histogram, extremes and level index in O(1). It panics if the
// bin is empty.
func (c *Config) RemoveBall(bin int) {
	v := c.loads[bin]
	if v == 0 {
		panic("loadvec: RemoveBall from empty bin")
	}
	c.m--
	c.count[v]--
	c.count[v-1]++
	c.loads[bin] = v - 1
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

func (c *Config) growCount(need int) {
	newLen := 2 * len(c.count)
	if newLen <= need {
		newLen = need + 1
	}
	nc := make([]int, newLen)
	copy(nc, c.count)
	c.count = nc
}

// Validate recomputes the cached state — min/max, the load histogram and
// the level index — from scratch and returns an error if any of it
// disagrees. Tests call this after randomized move sequences.
func (c *Config) Validate() error {
	if err := c.loads.Validate(c.m); err != nil {
		return err
	}
	fresh := NewConfig(c.loads)
	if fresh.min != c.min || fresh.max != c.max {
		return fmt.Errorf("loadvec: cached min/max (%d,%d) != fresh (%d,%d)",
			c.min, c.max, fresh.min, fresh.max)
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
