package protocols

import (
	"repro/internal/loadvec"
	"repro/internal/rng"
)

// CRS implements the Czumaj–Riley–Scheideler "perfectly balanced
// allocation" local-search protocol ([9], as summarized in §2 of the
// paper):
//
//	Initially each ball picks two alternative bins and is placed in one
//	of them. In each step a pair of bins (b1, b2) is chosen uniformly at
//	random. If there is a ball in b1 whose alternative bin is b2, this
//	ball is placed in the least loaded bin among b1 and b2.
//
// [9] show that when balls are placed initially via the power of two
// choices, perfect balance is reached within n^O(1) steps (hidden
// exponent ≥ 4). The CMP1 experiment contrasts this with RLS's O(n²)
// activations from the same initial placement. Note the structural
// restriction this protocol carries: a ball may only ever sit in one of
// its two alternatives, whereas RLS balls may go anywhere.
type CRS struct {
	n     int
	alt   [][2]int32 // ball -> its two alternative bins
	cur   []int32    // ball -> index (0/1) of the alternative it occupies
	bins  [][]int32  // bin -> ball ids residing there
	loads loadvec.Vector
	steps int64
}

// NewCRS creates a CRS instance with m balls over n bins. Each ball draws
// two independent uniform alternatives and is placed greedily in the
// lesser loaded one at arrival time (the two-choice placement that [9]'s
// main result assumes).
func NewCRS(n, m int, r *rng.RNG) *CRS {
	c := &CRS{
		n:     n,
		alt:   make([][2]int32, m),
		cur:   make([]int32, m),
		bins:  make([][]int32, n),
		loads: make(loadvec.Vector, n),
	}
	for b := 0; b < m; b++ {
		a0 := int32(r.Intn(n))
		a1 := int32(r.Intn(n))
		c.alt[b] = [2]int32{a0, a1}
		pick := 0
		if c.loads[a1] < c.loads[a0] {
			pick = 1
		}
		c.cur[b] = int32(pick)
		bin := c.alt[b][pick]
		c.bins[bin] = append(c.bins[bin], int32(b))
		c.loads[bin]++
	}
	return c
}

// Loads returns the current load vector (shared; do not modify).
func (c *CRS) Loads() loadvec.Vector { return c.loads }

// Step performs one protocol step: draw a uniform bin pair (b1, b2) and,
// if some ball residing in b1 has b2 as its other alternative, move it to
// the lesser loaded of the two (ties stay put, matching "least loaded
// among b1 and b2" with b1 preferred on equality so the move is never
// strictly harmful). Returns whether a ball relocated.
func (c *CRS) Step(r *rng.RNG) bool {
	b1 := int32(r.Intn(c.n))
	b2 := int32(r.Intn(c.n))
	if b1 == b2 {
		return false
	}
	// Find a ball in b1 whose other alternative is b2.
	for _, ball := range c.bins[b1] {
		other := c.alt[ball][1-c.cur[ball]]
		if other != b2 {
			continue
		}
		if c.loads[b2] < c.loads[b1] {
			c.relocate(ball, b1, b2)
			c.steps++
			return true
		}
		break
	}
	c.steps++
	return false
}

// relocate moves ball from bin src to bin dst, flipping its current
// alternative.
func (c *CRS) relocate(ball, src, dst int32) {
	lst := c.bins[src]
	for i, id := range lst {
		if id == ball {
			lst[i] = lst[len(lst)-1]
			c.bins[src] = lst[:len(lst)-1]
			break
		}
	}
	c.bins[dst] = append(c.bins[dst], ball)
	c.loads[src]--
	c.loads[dst]++
	c.cur[ball] = 1 - c.cur[ball]
}

// RunUntilPerfect steps the protocol until perfect balance or the step
// budget is exhausted; it returns the steps taken and whether balance was
// reached. Note that, unlike RLS, CRS may be *unable* to reach perfect
// balance from some configurations (its balls are confined to their two
// alternatives), so a budget is mandatory.
func (c *CRS) RunUntilPerfect(r *rng.RNG, maxSteps int64) (int64, bool) {
	start := c.steps
	for c.steps-start < maxSteps {
		if c.loads.IsPerfect() {
			return c.steps - start, true
		}
		c.Step(r)
	}
	return c.steps - start, c.loads.IsPerfect()
}

// Validate checks internal consistency (loads vs ball lists).
func (c *CRS) Validate() error {
	fresh := make(loadvec.Vector, c.n)
	for bin, lst := range c.bins {
		fresh[bin] = len(lst)
	}
	if !fresh.Equal(c.loads) {
		return errMismatch
	}
	return nil
}

var errMismatch = loadvecError("protocols: CRS loads out of sync with ball lists")

type loadvecError string

func (e loadvecError) Error() string { return string(e) }
