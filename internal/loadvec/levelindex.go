package loadvec

import (
	"fmt"
	"slices"

	"repro/internal/fenwick"
	"repro/internal/rng"
)

// levelIndex is the opt-in structure behind the rejection-free jump
// engine. It organizes the bins by load level and maintains, under the
// same single-bin level transitions that drive the histogram, everything
// the jump chain needs to sample a *productive* RLS move exactly:
//
//   - order is one permutation of the bins sorted by level, and pos maps
//     each bin to its slot. Level v occupies the segment
//     order[C(v−1):C(v)], so a uniform bin within a level is one array
//     index, and the u-th bin in level order is order[u];
//   - cum[v] is the prefix bin count C(v) = #{bins with load ≤ v}, which
//     doubles as the segment bounds. A transition moves one bin by one
//     level, so it changes C at exactly one level, min(from, to): an O(1)
//     update, and an O(1) read of the eligible-destination count
//     C(v−gap), whose first C(v−gap) slots of order are exactly the
//     eligible destinations;
//   - mvw is a prefix-sum tree (internal/fenwick) over the per-level
//     move weight s[v] = v·count[v]·C(v−gap). Its leaves are the one
//     copy of s, read in O(1), and its total W = Σ_v s[v] is exactly
//     (m·n)·P(a uniform activation is a productive move): the activated
//     ball sits at level v with probability v·count[v]/m and its uniform
//     destination accepts with probability C(v−gap)/n;
//   - bal is a prefix-sum tree over v·count[v] (total weight m), giving
//     load-proportional — i.e. uniform-ball — bin sampling. Only
//     SampleBallBin reads it, so it is built from the prefix counts on
//     the first SampleBallBin and kept in step from then on; a run that
//     never samples a ball (every Runner jump run) never pays for it.
//
// gap encodes the tie rule: 1 is plain RLS (move iff ℓ_src ≥ ℓ_dst + 1,
// destinations with load ≤ v−1 are eligible), 2 is the strict rule of
// [12]/[11] (move iff ℓ_src > ℓ_dst + 1, destinations with load ≤ v−2).
//
// A one-level shift swaps the bin into its level's boundary slot and
// moves that boundary by one: down, the bin takes its level's first slot
// and C(to)++ hands the slot to the level below; up, C(from)−− first, and
// the bin takes the slot that falls to the level above. A transition
// therefore touches count at two adjacent levels and C at one, so at
// most three s-entries change (two for gap = 1, where the C-shift lands
// on a level whose count also changed); each costs an O(1) leaf read and
// one O(log_B Δ) move-weight update in the indexed level range (one
// write per tree level, B = 16), plus two more updates for the ball tree
// once it is built. A Move is two shifts, applied in order and refreshed
// together, so a level both touch takes one update; a neutral Move
// (destination one level below the source) changes no count at all and
// only swaps the two bins' slots. Nothing is allocated per move. The
// index is self-contained: it reads only its own permutation, prefix
// counts and trees, never the Config histogram mid-update.
//
// A Config either has no index or all of the above. An engine that owns
// its move weight (the graph jump engine) enables none until a session
// first draws a random ball, and then builds the plain one (gap 1).
type levelIndex struct {
	gap   int           // tie rule: eligible destinations have load ≤ v−gap
	order []int32       // bins sorted by level: level v is order[C(v−1):C(v)]
	pos   []int32       // bin -> slot in order
	bal   *fenwick.Tree // v·count[v]; nil until the first SampleBallBin
	cum   []int64       // C(v) = #{bins with load ≤ v}
	mvw   *fenwick.Tree // s[v] = v·count[v]·C(v−gap), total W
	size  int           // number of indexed levels (levels 0..size-1)
}

// levelSize is the construction rule for the indexed level range: the
// smallest power of two ≥ 4 above max+1, so the top level has headroom
// before the first grow.
func levelSize(max int) int {
	size := 4
	for size <= max+1 {
		size *= 2
	}
	return size
}

// emptyLevelIndex allocates an index over n bins and size levels with
// zero prefix counts and unbuilt move-weight state; the ball tree is left
// for the first SampleBallBin. Callers fill order, pos and cum, then call
// rebuildTrees.
func emptyLevelIndex(n, size, gap int) *levelIndex {
	return &levelIndex{
		gap:   gap,
		order: make([]int32, n),
		pos:   make([]int32, n),
		cum:   make([]int64, size),
		mvw:   new(fenwick.Tree),
		size:  size,
	}
}

// newLevelIndex builds the index for the configuration's current state
// with the given tie gap (1 = plain, 2 = strict). A counting sort lays
// the bins out by level, ascending bin number within a level: cum first
// holds each level's first slot as a write cursor, and each placed bin
// advances its level's cursor, which ends at C(v).
func newLevelIndex(c *Config, gap int) *levelIndex {
	x := emptyLevelIndex(c.n, levelSize(c.max), gap)
	var start int64
	for v := range x.size {
		x.cum[v] = start
		start += int64(c.CountAt(v))
	}
	for i, v := range c.loads {
		p := x.cum[v]
		x.order[p] = int32(i)
		x.pos[i] = int32(p)
		x.cum[v]++
	}
	x.rebuildTrees()
	return x
}

// first returns C(v−1), the first slot of level v.
func (x *levelIndex) first(v int) int64 {
	if v > 0 {
		return x.cum[v-1]
	}
	return 0
}

// count returns the number of bins at level v.
func (x *levelIndex) count(v int) int64 { return x.cum[v] - x.first(v) }

// rebuildTrees derives the move-weight tree and, once built, the ball
// tree from the prefix counts alone. Used on construction and when the
// level range grows or shrinks; existing trees are reset in place.
func (x *levelIndex) rebuildTrees() {
	if x.bal != nil {
		x.buildBall()
	}
	x.mvw.Reset(x.size)
	for v := range x.size {
		if w := x.weightAt(v); w != 0 {
			x.mvw.Add(v, w)
		}
	}
}

// buildBall (re)builds the ball tree from the prefix counts, allocating
// it on first use.
func (x *levelIndex) buildBall() {
	if x.bal == nil {
		x.bal = new(fenwick.Tree)
	}
	x.bal.Reset(x.size)
	for v := 1; v < x.size; v++ {
		if cn := x.count(v); cn > 0 {
			x.bal.Add(v, int64(v)*cn)
		}
	}
}

// grow extends the indexed level range to cover `need` and rebuilds the
// trees (amortized O(1) per transition by doubling).
func (x *levelIndex) grow(need int) {
	size := x.size
	for size <= need {
		size *= 2
	}
	x.resize(size)
}

// shrink cuts the indexed level range back to the construction-rule size
// once the top occupied level has fallen to a quarter of it, so tree
// walks cost O(log_B max) rather than O(log_B of the largest max ever
// seen) — an all-in-one start otherwise leaves an end-game with max ≤ 2
// walking every tree over ~2m levels. Shrinking at a quarter while grow
// doubles on overflow leaves a factor-4 hysteresis band: after a grow to
// 2S at max = S, the next shrink needs max < S/2, so the O(size) rebuilds
// stay amortized O(1) per transition.
func (x *levelIndex) shrink(max int) {
	if (max+1)*4 > x.size {
		return
	}
	if size := levelSize(max); size < x.size {
		x.resize(size)
	}
}

// resize sets the indexed level range to size levels and rebuilds the
// trees in place. Levels cut off hold no bins; levels added hold none
// either, so their prefix count is n. The permutation does not depend on
// the range and stays as it is.
func (x *levelIndex) resize(size int) {
	old := x.size
	x.cum = resized(x.cum, size)
	for v := old; v < size; v++ {
		x.cum[v] = int64(len(x.order))
	}
	x.size = size
	x.rebuildTrees()
}

// resized returns s with length n, reslicing within capacity and
// zero-extending past it.
func resized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s, make([]T, n-len(s))...)
}

// transition records that bin moved from level `from` to level `to`
// (|from−to| = 1), a churn arrival or departure: shift, then refresh the
// move weight around the shift.
func (x *levelIndex) transition(bin, from, to int) {
	x.shift(bin, from, to)
	x.refreshAround(from, to)
}

// move records a Move of one ball from src (at level v) to dst (at level
// w): src shifts down, then dst shifts up, in that order, since the slot
// order is simulation state. A neutral move (w = v−1) trades two bins
// between adjacent levels and leaves every count — hence the ball tree,
// the prefix counts and the move weight — unchanged, so the two bins only
// swap slots. Otherwise the move weight is refreshed once both shifts are
// in, so a level both shifts touch takes one tree update, not two.
func (x *levelIndex) move(src, v, dst, w int) {
	if w == v-1 {
		ps, pd := x.pos[src], x.pos[dst]
		x.order[ps], x.order[pd] = int32(dst), int32(src)
		x.pos[src], x.pos[dst] = pd, ps
		return
	}
	x.shift(src, v, v-1)
	x.shift(dst, w, w+1)
	x.refreshAround(v, v-1)
	x.refreshAround(w, w+1)
}

// shift moves bin from level `from` to level `to` (|from−to| = 1) in the
// permutation, the prefix counts, where only C(min(from, to)) changes,
// and the ball tree once built. The move weight is left to refreshAround.
func (x *levelIndex) shift(bin, from, to int) {
	if to >= x.size {
		x.grow(to)
	}
	if to < from {
		// The bin takes level from's first slot, which then joins `to`.
		x.place(bin, x.cum[to])
		x.cum[to]++
	} else {
		// Level from's last slot joins `to`, and the bin takes it.
		x.cum[from]--
		x.place(bin, x.cum[from])
	}
	if x.bal != nil {
		if from > 0 {
			x.bal.Add(from, int64(-from))
		}
		if to > 0 {
			x.bal.Add(to, int64(to))
		}
	}
}

// place swaps bin into slot, moving the slot's bin to bin's old slot.
func (x *levelIndex) place(bin int, slot int64) {
	p, other := x.pos[bin], x.order[slot]
	x.order[p], x.pos[other] = other, p
	x.order[slot], x.pos[bin] = int32(bin), int32(slot)
}

// refreshAround refreshes the move weight at exactly the levels a shift
// between `from` and `to` changes the inputs of: count at from/to, and C
// at lo = min(from, to), which feeds s[lo+gap] — for gap = 1 that is
// s[max(from, to)], already refreshed; for gap = 2 it is the extra level
// lo+2.
func (x *levelIndex) refreshAround(from, to int) {
	x.refreshWeight(from)
	x.refreshWeight(to)
	// Levels at or past x.size hold no bins (s = 0).
	if u := min(from, to) + x.gap; x.gap > 1 && u < x.size {
		x.refreshWeight(u)
	}
}

// below returns C(v−gap), the number of bins eligible as destinations of
// a move from level v.
func (x *levelIndex) below(v int) int64 {
	if w := v - x.gap; w >= 0 {
		return x.cum[w]
	}
	return 0
}

// weightAt computes s[v] = v·count[v]·C(v−gap) from the prefix counts.
func (x *levelIndex) weightAt(v int) int64 {
	if cn := x.count(v); v > 0 && cn > 0 {
		return int64(v) * cn * x.below(v)
	}
	return 0
}

// refreshWeight recomputes s[v] and applies the difference to the
// move-weight tree as a point update.
func (x *levelIndex) refreshWeight(v int) {
	if d := x.weightAt(v) - x.mvw.Value(v); d != 0 {
		x.mvw.Add(v, d)
	}
}

// clone returns an independent deep copy of the index.
func (x *levelIndex) clone() *levelIndex {
	cp := &levelIndex{
		gap:   x.gap,
		order: slices.Clone(x.order),
		pos:   slices.Clone(x.pos),
		cum:   slices.Clone(x.cum),
		mvw:   x.mvw.Clone(),
		size:  x.size,
	}
	if x.bal != nil {
		cp.bal = x.bal.Clone()
	}
	return cp
}

// EnableLevelIndex builds the level index over the current configuration
// for plain RLS (tie gap 1). Subsequent Move/AddBall/RemoveBall calls
// maintain it incrementally in O(log Δ) (amortized over the range's grows
// and shrinks); until enabled, Config carries no index and pays nothing.
// Enabling twice is a no-op.
func (c *Config) EnableLevelIndex() { c.enableLevelIndex(1) }

// EnableStrictLevelIndex builds the level index for the strict tie rule
// of [12]/[11] (tie gap 2): the move weight becomes
// W' = Σ_v v·count[v]·C(v−2) and SampleMovePair draws destinations with
// load ≤ v−2, matching the rule that forbids neutral moves. Everything
// else — maintenance cost, churn updates, SampleBallBin — is unchanged.
func (c *Config) EnableStrictLevelIndex() { c.enableLevelIndex(2) }

func (c *Config) enableLevelIndex(gap int) {
	if c.idx == nil {
		c.idx = newLevelIndex(c, gap)
		return
	}
	if c.idx.gap != gap {
		panic("loadvec: level index already enabled with a different tie rule")
	}
}

// LevelIndexed reports whether the level index is enabled.
func (c *Config) LevelIndexed() bool { return c.idx != nil }

// TieGap returns the enabled index's tie gap (1 = plain, 2 = strict), or
// 0 when no level index is enabled.
func (c *Config) TieGap() int {
	if c.idx == nil {
		return 0
	}
	return c.idx.gap
}

// MoveWeight returns W = Σ_v v·count[v]·C(v−gap), where C(w) is the
// number of bins with load ≤ w and gap is the index's tie rule (1 plain,
// 2 strict). W/(m·n) is exactly the probability that a uniform ball
// activation is a productive move under that rule; W = 0 iff no eligible
// (src, dst) pair exists — for gap 1 iff every bin holds the same load,
// for gap 2 iff max − min ≤ 1 (i.e. the configuration is perfect). It
// panics unless the level index is enabled.
func (c *Config) MoveWeight() int64 {
	if c.idx == nil {
		panic("loadvec: MoveWeight without EnableLevelIndex")
	}
	return c.idx.mvw.Total()
}

// SampleMovePair draws a productive move (src, dst) with the exact law
// of the embedded jump chain under the index's tie rule: P(src at level
// v, dst at level w) ∝ v·count[v]·count[w] for w ≤ v−gap, uniform over
// the bins within each level. It panics if the index is disabled or if
// no productive move exists (MoveWeight 0).
func (c *Config) SampleMovePair(r *rng.RNG) (src, dst int) {
	x := c.idx
	if x == nil {
		panic("loadvec: SampleMovePair without EnableLevelIndex")
	}
	w := x.mvw.Total()
	if w <= 0 {
		panic("loadvec: SampleMovePair with zero move weight")
	}
	v, _ := x.mvw.Find(r.Int63n(w))
	lo := x.first(v)
	src = int(x.order[lo+int64(r.Intn(int(x.cum[v]-lo)))])
	// The destination is the u-th bin in level order among the C(v−gap)
	// eligible ones (≥ 1: s[v] > 0 requires an eligible level), which
	// the permutation holds in its first C(v−gap) slots.
	dst = int(x.order[r.Int63n(x.below(v))])
	return src, dst
}

// SampleBallBin returns the bin of a uniformly random ball (bins sampled
// proportionally to load, uniform within a level) in O(log Δ) without any
// per-ball state. The first call builds the index's ball tree in O(Δ),
// and every later transition keeps it in step, so SampleBallBin mutates
// the index even though the configuration does not change. It panics if
// the index is disabled or no balls exist.
func (c *Config) SampleBallBin(r *rng.RNG) int {
	x := c.idx
	if x == nil {
		panic("loadvec: SampleBallBin without EnableLevelIndex")
	}
	if c.m == 0 {
		panic("loadvec: SampleBallBin with no balls")
	}
	if x.bal == nil {
		x.buildBall()
	}
	v, rem := x.bal.Find(r.Int63n(int64(c.m)))
	return int(x.order[x.first(v)+rem/int64(v)])
}

// validateIndex cross-checks every piece of level-index state against a
// from-scratch recompute from the Config's histogram and loads; part of
// Validate, which checks the histogram first.
func (c *Config) validateIndex() error {
	x := c.idx
	if x == nil {
		return nil
	}
	if c.max >= x.size {
		return fmt.Errorf("loadvec: index covers %d levels, max load is %d", x.size, c.max)
	}
	if len(x.cum) != x.size || len(x.order) != c.n || len(x.pos) != c.n {
		return fmt.Errorf("loadvec: index arrays (%d prefix counts, %d slots, %d positions) do not fit %d levels over %d bins",
			len(x.cum), len(x.order), len(x.pos), x.size, c.n)
	}
	var cum int64
	for v := range x.size {
		cum += int64(c.CountAt(v))
		if x.cum[v] != cum {
			return fmt.Errorf("loadvec: cum[%d] = %d, want %d", v, x.cum[v], cum)
		}
	}
	v := 0
	for slot, bin := range x.order {
		for int64(slot) >= x.cum[v] {
			v++
		}
		if bin < 0 || int(bin) >= c.n || x.pos[bin] != int32(slot) {
			return fmt.Errorf("loadvec: order[%d] = bin %d, whose pos is not %d", slot, bin, slot)
		}
		if c.loads[bin] != v {
			return fmt.Errorf("loadvec: bin %d (load %d) in level %d's segment at slot %d", bin, c.loads[bin], v, slot)
		}
	}
	if err := x.validateBall(); err != nil {
		return err
	}
	return x.validateWeights()
}

// validateBall checks the ball tree, when built, against the prefix
// counts.
func (x *levelIndex) validateBall() error {
	if x.bal == nil {
		return nil
	}
	if x.bal.N() != x.size {
		return fmt.Errorf("loadvec: bal tree covers %d levels, index %d", x.bal.N(), x.size)
	}
	for v, got := range x.bal.Leaves() {
		if want := int64(v) * x.count(v); got != want {
			return fmt.Errorf("loadvec: bal leaf %d = %d, want %d", v, got, want)
		}
	}
	return nil
}

// validateWeights checks the move-weight leaves and W against a
// recompute from the prefix counts.
func (x *levelIndex) validateWeights() error {
	if x.mvw.N() != x.size {
		return fmt.Errorf("loadvec: move-weight tree covers %d levels, index %d", x.mvw.N(), x.size)
	}
	mvw := x.mvw.Leaves()
	var wTotal int64
	for v := range x.size {
		want := x.weightAt(v) // s[v] = v·count[v]·C(v−gap)
		if mvw[v] != want {
			return fmt.Errorf("loadvec: mvw leaf %d = %d, want %d", v, mvw[v], want)
		}
		wTotal += want
	}
	if got := x.mvw.Total(); got != wTotal {
		return fmt.Errorf("loadvec: cached W = %d, fresh %d", got, wTotal)
	}
	return nil
}
