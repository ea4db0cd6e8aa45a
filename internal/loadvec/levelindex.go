package loadvec

import (
	"fmt"

	"repro/internal/fenwick"
	"repro/internal/rng"
)

// levelIndex is the opt-in structure behind the rejection-free jump
// engine. It organizes the bins by load level and maintains, under the
// same single-bin level transitions that drive the histogram, everything
// the jump chain needs to sample a *productive* RLS move exactly:
//
//   - binsAt[v] lists the bins currently at load v (swap-delete, O(1)),
//     so a uniform bin within a level is one array index;
//   - cum[v] is the prefix bin count C(v) = #{bins with load ≤ v}. A
//     transition moves one bin by one level, so it changes C at exactly
//     one level, min(from, to): an O(1) update, an O(1) read of the
//     eligible-destination count C(v−gap), and a binary search over
//     [min, v−gap] for the weighted destination level;
//   - mvw is a prefix-sum tree (internal/fenwick) over the per-level
//     move weight s[v] = v·count[v]·C(v−gap). Its leaves are the one
//     copy of s, read in O(1), and its total W = Σ_v s[v] is exactly
//     (m·n)·P(a uniform activation is a productive move): the activated
//     ball sits at level v with probability v·count[v]/m and its uniform
//     destination accepts with probability C(v−gap)/n;
//   - bal is a prefix-sum tree over v·count[v] (total weight m), giving
//     load-proportional — i.e. uniform-ball — bin sampling. Only
//     SampleBallBin reads it, so it is built from the lists on the first
//     SampleBallBin and kept in step from then on; a run that never
//     samples a ball (every Runner jump run) never pays for it.
//
// gap encodes the tie rule: 1 is plain RLS (move iff ℓ_src ≥ ℓ_dst + 1,
// destinations with load ≤ v−1 are eligible), 2 is the strict rule of
// [12]/[11] (move iff ℓ_src > ℓ_dst + 1, destinations with load ≤ v−2).
//
// A level transition touches count at two adjacent levels and C at one,
// so at most three s-entries change (two for gap = 1, where the C-shift
// lands on a level whose count also changed); each costs an O(1) leaf
// read and one O(log_B Δ) move-weight update in the indexed level range
// (one write per tree level, B = 16), plus two more updates for the ball
// tree once it is built. A Move is two transitions, applied to the lists
// in order and refreshed together, so a level both touch takes one
// update; a neutral Move (destination one level below the source) changes
// no count at all and touches only the lists. The index is
// self-contained: it reads only its own lists, prefix counts and trees,
// never the Config histogram mid-update.
//
// A Config either has no index or all of the above. An engine that owns
// its move weight (the graph jump engine) enables none until a session
// first draws a random ball, and then builds the plain one (gap 1).
type levelIndex struct {
	gap    int           // tie rule: eligible destinations have load ≤ v−gap
	binsAt [][]int32     // level -> bins at that level (unordered)
	pos    []int32       // bin -> position within binsAt[load]
	bal    *fenwick.Tree // v·count[v]; nil until the first SampleBallBin
	cum    []int64       // C(v) = #{bins with load ≤ v}
	mvw    *fenwick.Tree // s[v] = v·count[v]·C(v−gap), total W
	size   int           // number of indexed levels (levels 0..size-1)
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
// empty lists and unbuilt move-weight state; the ball tree is left for
// the first SampleBallBin. Callers fill binsAt and pos, then call
// rebuildTrees.
func emptyLevelIndex(n, size, gap int) *levelIndex {
	return &levelIndex{
		gap:    gap,
		binsAt: make([][]int32, size),
		pos:    make([]int32, n),
		cum:    make([]int64, size),
		mvw:    new(fenwick.Tree),
		size:   size,
	}
}

// newLevelIndex builds the index for the configuration's current state
// with the given tie gap (1 = plain, 2 = strict).
func newLevelIndex(c *Config, gap int) *levelIndex {
	x := emptyLevelIndex(c.n, levelSize(c.max), gap)
	for i, v := range c.loads {
		x.pos[i] = int32(len(x.binsAt[v]))
		x.binsAt[v] = append(x.binsAt[v], int32(i))
	}
	x.rebuildTrees()
	return x
}

// rebuildTrees derives the prefix counts, the move-weight tree and, once
// built, the ball tree from the binsAt lists alone. Used on construction
// and when the level range grows or shrinks; existing trees are reset in
// place.
func (x *levelIndex) rebuildTrees() {
	if x.bal != nil {
		x.buildBall()
	}
	var c int64
	for v, lst := range x.binsAt {
		c += int64(len(lst))
		x.cum[v] = c
	}
	x.mvw.Reset(x.size)
	for v := range x.size {
		if w := x.weightAt(v); w != 0 {
			x.mvw.Add(v, w)
		}
	}
}

// buildBall (re)builds the ball tree from the lists, allocating it on
// first use.
func (x *levelIndex) buildBall() {
	if x.bal == nil {
		x.bal = new(fenwick.Tree)
	}
	x.bal.Reset(x.size)
	for v, lst := range x.binsAt {
		if v > 0 && len(lst) > 0 {
			x.bal.Add(v, int64(v)*int64(len(lst)))
		}
	}
}

// grow extends the indexed level range to cover `need` and rebuilds the
// trees from the lists (amortized O(1) per transition by doubling).
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
// prefix counts and trees in place. Levels cut off hold no bins, and
// binsAt past its length keeps only empty lists, so a later grow within
// capacity reslices instead of allocating (cum is rewritten whole by the
// rebuild).
func (x *levelIndex) resize(size int) {
	x.binsAt = resized(x.binsAt, size)
	x.cum = resized(x.cum, size)
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
// w): src shifts down, then dst shifts up, in that order, since the list
// order is simulation state. A neutral move (w = v−1) trades two bins
// between adjacent levels and leaves every count — hence the ball tree,
// the prefix counts and the move weight — unchanged, so only the lists
// move. Otherwise the move weight is refreshed once both shifts are in,
// so a level both shifts touch takes one tree update, not two.
func (x *levelIndex) move(src, v, dst, w int) {
	if w == v-1 {
		x.relist(src, v, v-1)
		x.relist(dst, w, w+1)
		return
	}
	x.shift(src, v, v-1)
	x.shift(dst, w, w+1)
	x.refreshAround(v, v-1)
	x.refreshAround(w, w+1)
}

// shift moves bin from level `from` to level `to` (|from−to| = 1) in the
// lists, the ball tree once built and the prefix counts, where only
// C(min(from, to)) changes. The move weight is left to refreshAround.
func (x *levelIndex) shift(bin, from, to int) {
	if to >= x.size {
		x.grow(to)
	}
	x.relist(bin, from, to)
	if x.bal != nil {
		if from > 0 {
			x.bal.Add(from, int64(-from))
		}
		if to > 0 {
			x.bal.Add(to, int64(to))
		}
	}
	if to < from {
		x.cum[to]++ // the bin joins level `to` from above
	} else {
		x.cum[from]-- // the bin leaves level `from` upward
	}
}

// relist swap-deletes bin from binsAt[from] and appends it to binsAt[to].
func (x *levelIndex) relist(bin, from, to int) {
	lst := x.binsAt[from]
	p := x.pos[bin]
	last := lst[len(lst)-1]
	lst[p] = last
	x.pos[last] = p
	x.binsAt[from] = lst[:len(lst)-1]
	x.pos[bin] = int32(len(x.binsAt[to]))
	x.binsAt[to] = append(x.binsAt[to], int32(bin))
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

// weightAt computes s[v] = v·count[v]·C(v−gap) from the lists and the
// prefix counts.
func (x *levelIndex) weightAt(v int) int64 {
	if cn := int64(len(x.binsAt[v])); v > 0 && cn > 0 {
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
		gap:    x.gap,
		binsAt: make([][]int32, len(x.binsAt)),
		pos:    append([]int32(nil), x.pos...),
		cum:    append([]int64(nil), x.cum...),
		mvw:    x.mvw.Clone(),
		size:   x.size,
	}
	if x.bal != nil {
		cp.bal = x.bal.Clone()
	}
	for v, lst := range x.binsAt {
		if len(lst) > 0 {
			cp.binsAt[v] = append([]int32(nil), lst...)
		}
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
	lst := x.binsAt[v]
	src = int(lst[r.Intn(len(lst))])
	// The destination is the u-th bin in level order among the C(v−gap)
	// eligible ones (≥ 1: s[v] > 0 requires an eligible level): its level
	// is the first w with C(w) > u, which lies in [min, v−gap] since
	// C(min−1) = 0 ≤ u < C(v−gap).
	u := r.Int63n(x.below(v))
	lo, hi := c.min, v-x.gap
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); x.cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 {
		u -= x.cum[lo-1]
	}
	dst = int(x.binsAt[lo][u])
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
	return int(x.binsAt[v][rem/int64(v)])
}

// validateIndex cross-checks every piece of level-index state against a
// from-scratch recompute; part of Validate.
func (c *Config) validateIndex() error {
	x := c.idx
	if x == nil {
		return nil
	}
	if c.max >= x.size {
		return fmt.Errorf("loadvec: index covers %d levels, max load is %d", x.size, c.max)
	}
	for i, v := range c.loads {
		p := int(x.pos[i])
		if v >= len(x.binsAt) || p >= len(x.binsAt[v]) || x.binsAt[v][p] != int32(i) {
			return fmt.Errorf("loadvec: bin %d (load %d) not at binsAt[%d][%d]", i, v, v, p)
		}
	}
	total := 0
	for v := 0; v < x.size; v++ {
		cn := len(x.binsAt[v])
		total += cn
		if cn != c.CountAt(v) {
			return fmt.Errorf("loadvec: binsAt[%d] has %d bins, histogram says %d", v, cn, c.CountAt(v))
		}
	}
	if total != c.n {
		return fmt.Errorf("loadvec: index holds %d bins, want %d", total, c.n)
	}
	if err := x.validateBall(); err != nil {
		return err
	}
	return x.validateWeights()
}

// validateBall checks the ball tree, when built, against the lists.
func (x *levelIndex) validateBall() error {
	if x.bal == nil {
		return nil
	}
	if x.bal.N() != x.size {
		return fmt.Errorf("loadvec: bal tree covers %d levels, index %d", x.bal.N(), x.size)
	}
	for v, got := range x.bal.Leaves() {
		if want := int64(v) * int64(len(x.binsAt[v])); got != want {
			return fmt.Errorf("loadvec: bal leaf %d = %d, want %d", v, got, want)
		}
	}
	return nil
}

// validateWeights checks the move-weight state — the prefix counts, the
// move-weight leaves and W — against a recompute from the lists.
func (x *levelIndex) validateWeights() error {
	if len(x.cum) != x.size || x.mvw.N() != x.size {
		return fmt.Errorf("loadvec: move-weight state does not cover the index's %d levels", x.size)
	}
	mvw := x.mvw.Leaves()
	var wTotal int64
	var cum, cumPrev int64 // C(v−1) and C(v−2), tracked independently
	for v := 0; v < x.size; v++ {
		cn := int64(len(x.binsAt[v]))
		if x.cum[v] != cum+cn {
			return fmt.Errorf("loadvec: cum[%d] = %d, want %d", v, x.cum[v], cum+cn)
		}
		elig := cum // C(v−1) for plain, C(v−2) for strict
		if x.gap == 2 {
			elig = cumPrev
		}
		want := int64(v) * cn * elig // s[v] = v·count[v]·C(v−gap)
		if mvw[v] != want {
			return fmt.Errorf("loadvec: mvw leaf %d = %d, want %d", v, mvw[v], want)
		}
		cumPrev = cum
		cum += cn
		wTotal += want
	}
	if got := x.mvw.Total(); got != wTotal {
		return fmt.Errorf("loadvec: cached W = %d, fresh %d", got, wTotal)
	}
	return nil
}
