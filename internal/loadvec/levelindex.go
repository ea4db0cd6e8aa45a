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
//   - cnt is a Fenwick tree over count[v], giving the prefix bin count
//     C(v) = #{bins with load ≤ v} and weighted level sampling for the
//     destination side;
//   - bal is a Fenwick tree over v·count[v] (total weight m), giving
//     load-proportional — i.e. uniform-ball — bin sampling;
//   - mvw is a Fenwick tree over the per-level move weight
//     s[v] = v·count[v]·C(v−gap), whose total W = Σ_v s[v] is exactly
//     (m·n)·P(a uniform activation is a productive move): the activated
//     ball sits at level v with probability v·count[v]/m and its uniform
//     destination accepts with probability C(v−gap)/n.
//
// gap encodes the tie rule: 1 is plain RLS (move iff ℓ_src ≥ ℓ_dst + 1,
// destinations with load ≤ v−1 are eligible), 2 is the strict rule of
// [12]/[11] (move iff ℓ_src > ℓ_dst + 1, destinations with load ≤ v−2).
//
// A level transition touches count at two adjacent levels and C at one,
// so at most three s-entries change (two for gap = 1, where the C-shift
// lands on a level whose count also changed) and every update is
// O(log Δ) in the indexed level range. The index is self-contained: it
// reads only its own lists and trees, never the Config histogram
// mid-update, so the two transitions of a Move may be applied
// sequentially.
//
// The move-weight state (cnt, mvw, sval, wTotal) is nil in the
// ball-sampling-only shape (EnableBallIndex): an engine that owns its own
// move weight, like the graph jump engine, reads only SampleBallBin, so
// its index keeps binsAt, pos and bal and nothing else.
type levelIndex struct {
	gap    int           // tie rule: eligible destinations have load ≤ v−gap
	binsAt [][]int32     // level -> bins at that level (unordered)
	pos    []int32       // bin -> position within binsAt[load]
	bal    *fenwick.Tree // v·count[v]
	cnt    *fenwick.Tree // count[v]; nil in the ball-sampling-only shape
	mvw    *fenwick.Tree // s[v] = v·count[v]·C(v−gap); nil likewise
	sval   []int64       // current s[v] values (to derive Fenwick deltas); nil likewise
	wTotal int64         // W = Σ_v s[v]; 0 in the ball-sampling-only shape
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
// empty lists and unbuilt trees, in the full shape when weighted and the
// ball-sampling-only shape otherwise. Callers fill binsAt and pos, then
// call rebuildTrees.
func emptyLevelIndex(n, size, gap int, weighted bool) *levelIndex {
	x := &levelIndex{
		gap:    gap,
		binsAt: make([][]int32, size),
		pos:    make([]int32, n),
		bal:    new(fenwick.Tree),
		size:   size,
	}
	if weighted {
		x.cnt, x.mvw = new(fenwick.Tree), new(fenwick.Tree)
		x.sval = make([]int64, size)
	}
	return x
}

// newLevelIndex builds the index for the configuration's current state
// with the given tie gap (1 = plain, 2 = strict), with the move-weight
// state when weighted.
func newLevelIndex(c *Config, gap int, weighted bool) *levelIndex {
	x := emptyLevelIndex(c.n, levelSize(c.max), gap, weighted)
	for i, v := range c.loads {
		x.pos[i] = int32(len(x.binsAt[v]))
		x.binsAt[v] = append(x.binsAt[v], int32(i))
	}
	x.rebuildTrees()
	return x
}

// rebuildTrees derives the Fenwick trees (and sval/wTotal) of the index's
// shape from the binsAt lists alone. Used on construction and when the
// level range grows or shrinks; existing trees are reset in place.
func (x *levelIndex) rebuildTrees() {
	x.bal.Reset(x.size)
	for v, lst := range x.binsAt {
		if v > 0 && len(lst) > 0 {
			x.bal.Add(v, int64(v)*int64(len(lst)))
		}
	}
	if x.mvw == nil {
		return
	}
	x.cnt.Reset(x.size)
	x.mvw.Reset(x.size)
	x.wTotal = 0
	for v, lst := range x.binsAt {
		if len(lst) > 0 {
			x.cnt.Add(v, int64(len(lst)))
		}
	}
	for v := range x.sval {
		x.sval[v] = 0
		if v > 0 {
			if cn := int64(len(x.binsAt[v])); cn > 0 {
				x.sval[v] = int64(v) * cn * x.cnt.Prefix(v-x.gap)
			}
		}
		if x.sval[v] != 0 {
			x.mvw.Add(v, x.sval[v])
			x.wTotal += x.sval[v]
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
// once the top occupied level has fallen to a quarter of it, so Fenwick
// walks cost O(log max) rather than O(log of the largest max ever seen) —
// an all-in-one start otherwise leaves an end-game with max ≤ 2 walking
// every tree over ~2m levels. Shrinking at a quarter while grow doubles on
// overflow leaves a factor-4 hysteresis band: after a grow to 2S at
// max = S, the next shrink needs max < S/2, so the O(size) rebuilds stay
// amortized O(1) per transition.
func (x *levelIndex) shrink(max int) {
	if (max+1)*4 > x.size {
		return
	}
	if size := levelSize(max); size < x.size {
		x.resize(size)
	}
}

// resize sets the indexed level range to size levels and rebuilds the
// trees in place. Levels cut off hold no bins, and binsAt/sval past their
// length keep only empty lists and zero weights, so a later grow within
// capacity reslices instead of allocating.
func (x *levelIndex) resize(size int) {
	x.binsAt = resized(x.binsAt, size)
	if x.sval != nil {
		x.sval = resized(x.sval, size)
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
// (|from−to| = 1). It updates the lists and the ball-weight tree and, in
// the full shape, the count tree, refreshing the move weight at exactly
// the levels whose inputs changed: count at from/to, and C at min(from,to)
// which feeds s[min+gap] — for gap = 1 that is s[max], already refreshed;
// for gap = 2 it is the extra level max+1.
func (x *levelIndex) transition(bin, from, to int) {
	if to >= x.size {
		x.grow(to)
	}
	lst := x.binsAt[from]
	p := x.pos[bin]
	last := lst[len(lst)-1]
	lst[p] = last
	x.pos[last] = p
	x.binsAt[from] = lst[:len(lst)-1]
	x.pos[bin] = int32(len(x.binsAt[to]))
	x.binsAt[to] = append(x.binsAt[to], int32(bin))

	if from > 0 {
		x.bal.Add(from, int64(-from))
	}
	if to > 0 {
		x.bal.Add(to, int64(to))
	}
	if x.mvw == nil {
		return
	}
	x.cnt.Add(from, -1)
	x.cnt.Add(to, 1)
	x.refreshWeight(from)
	x.refreshWeight(to)
	if x.gap > 1 {
		lo := from
		if to < lo {
			lo = to
		}
		// C(lo) changed; it feeds s[lo+gap], which for gap > 1 is neither
		// `from` nor `to`. Levels at or past x.size hold no bins (s = 0).
		if u := lo + x.gap; u < x.size {
			x.refreshWeight(u)
		}
	}
}

// refreshWeight recomputes s[v] = v·count[v]·C(v−gap) from the live
// trees and applies the difference as a point update.
func (x *levelIndex) refreshWeight(v int) {
	var s int64
	if v > 0 {
		if cn := int64(len(x.binsAt[v])); cn > 0 {
			s = int64(v) * cn * x.cnt.Prefix(v-x.gap)
		}
	}
	if d := s - x.sval[v]; d != 0 {
		x.mvw.Add(v, d)
		x.sval[v] = s
		x.wTotal += d
	}
}

// clone returns an independent deep copy of the index.
func (x *levelIndex) clone() *levelIndex {
	cp := &levelIndex{
		gap:    x.gap,
		binsAt: make([][]int32, len(x.binsAt)),
		pos:    append([]int32(nil), x.pos...),
		bal:    x.bal.Clone(),
		wTotal: x.wTotal,
		size:   x.size,
	}
	if x.mvw != nil {
		cp.cnt, cp.mvw = x.cnt.Clone(), x.mvw.Clone()
		cp.sval = append([]int64(nil), x.sval...)
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
// maintain it incrementally in O(log Δ); until enabled, Config carries no
// index and pays nothing. Enabling twice is a no-op.
func (c *Config) EnableLevelIndex() { c.enableLevelIndex(1, true) }

// EnableBallIndex builds the level index in its ball-sampling-only shape:
// it maintains the per-level bin lists and the ball-weight tree that
// SampleBallBin reads, with the same grow and shrink, and none of the
// move-weight state — MoveWeight and SampleMovePair panic on it. It is
// the shape for engines that own their move weight, such as the graph
// jump engine. Its snapshot encoding is the plain index's (tie gap 1).
func (c *Config) EnableBallIndex() { c.enableLevelIndex(1, false) }

// EnableStrictLevelIndex builds the level index for the strict tie rule
// of [12]/[11] (tie gap 2): the move weight becomes
// W' = Σ_v v·count[v]·C(v−2) and SampleMovePair draws destinations with
// load ≤ v−2, matching the rule that forbids neutral moves. Everything
// else — maintenance cost, churn updates, SampleBallBin — is unchanged.
func (c *Config) EnableStrictLevelIndex() { c.enableLevelIndex(2, true) }

func (c *Config) enableLevelIndex(gap int, weighted bool) {
	if c.idx == nil {
		c.idx = newLevelIndex(c, gap, weighted)
		return
	}
	if c.idx.gap != gap {
		panic("loadvec: level index already enabled with a different tie rule")
	}
	if c.MoveWeightIndexed() != weighted {
		panic("loadvec: level index already enabled with a different shape")
	}
}

// LevelIndexed reports whether the level index is enabled.
func (c *Config) LevelIndexed() bool { return c.idx != nil }

// MoveWeightIndexed reports whether the level index is enabled and keeps
// the move-weight state behind MoveWeight and SampleMovePair — false for
// the ball-sampling-only shape of EnableBallIndex.
func (c *Config) MoveWeightIndexed() bool { return c.idx != nil && c.idx.mvw != nil }

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
// panics unless the level index is enabled with its move-weight state.
func (c *Config) MoveWeight() int64 {
	if c.idx == nil {
		panic("loadvec: MoveWeight without EnableLevelIndex")
	}
	if c.idx.mvw == nil {
		panic("loadvec: MoveWeight on a ball-sampling-only level index")
	}
	return c.idx.wTotal
}

// SampleMovePair draws a productive move (src, dst) with the exact law
// of the embedded jump chain under the index's tie rule: P(src at level
// v, dst at level w) ∝ v·count[v]·count[w] for w ≤ v−gap, uniform over
// the bins within each level. It panics if the index is disabled or
// ball-sampling-only, or if no productive move exists (MoveWeight 0).
func (c *Config) SampleMovePair(r *rng.RNG) (src, dst int) {
	x := c.idx
	if x == nil {
		panic("loadvec: SampleMovePair without EnableLevelIndex")
	}
	if x.mvw == nil {
		panic("loadvec: SampleMovePair on a ball-sampling-only level index")
	}
	if x.wTotal <= 0 {
		panic("loadvec: SampleMovePair with zero move weight")
	}
	v, _ := x.mvw.Find(r.Int63n(x.wTotal))
	lst := x.binsAt[v]
	src = int(lst[r.Intn(len(lst))])
	below := x.cnt.Prefix(v - x.gap) // ≥ 1: s[v] > 0 requires an eligible level
	w, rem := x.cnt.Find(r.Int63n(below))
	dst = int(x.binsAt[w][rem])
	return src, dst
}

// SampleBallBin returns the bin of a uniformly random ball (bins sampled
// proportionally to load, uniform within a level) in O(log Δ) without any
// per-ball state. It panics if the index is disabled or no balls exist.
func (c *Config) SampleBallBin(r *rng.RNG) int {
	x := c.idx
	if x == nil {
		panic("loadvec: SampleBallBin without EnableLevelIndex")
	}
	if c.m == 0 {
		panic("loadvec: SampleBallBin with no balls")
	}
	v, rem := x.bal.Find(r.Int63n(int64(c.m)))
	return int(x.binsAt[v][rem/int64(v)])
}

// validateIndex cross-checks every piece of level-index state against a
// from-scratch recompute; part of Validate. In the ball-sampling-only
// shape that is the lists, pos and the bal leaves, and it checks that no
// move-weight state is present.
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
	if x.bal.N() != x.size {
		return fmt.Errorf("loadvec: bal tree covers %d levels, index %d", x.bal.N(), x.size)
	}
	bal := x.bal.Leaves()
	total := 0
	for v := 0; v < x.size; v++ {
		cn := len(x.binsAt[v])
		total += cn
		if cn != c.CountAt(v) {
			return fmt.Errorf("loadvec: binsAt[%d] has %d bins, histogram says %d", v, cn, c.CountAt(v))
		}
		if want := int64(v) * int64(cn); bal[v] != want {
			return fmt.Errorf("loadvec: bal leaf %d = %d, want %d", v, bal[v], want)
		}
	}
	if total != c.n {
		return fmt.Errorf("loadvec: index holds %d bins, want %d", total, c.n)
	}
	if x.mvw == nil {
		if x.cnt != nil || x.sval != nil || x.wTotal != 0 || x.gap != 1 {
			return fmt.Errorf("loadvec: ball-sampling-only index carries move-weight state (cnt %v, sval %v, W %d, gap %d)",
				x.cnt != nil, x.sval != nil, x.wTotal, x.gap)
		}
		return nil
	}
	return x.validateWeights()
}

// validateWeights checks the full shape's move-weight state — the count
// and move-weight leaves, sval and W — against a recompute from the lists.
func (x *levelIndex) validateWeights() error {
	if x.cnt == nil || len(x.sval) != x.size || x.cnt.N() != x.size || x.mvw.N() != x.size {
		return fmt.Errorf("loadvec: move-weight state does not cover the index's %d levels", x.size)
	}
	cnt, mvw := x.cnt.Leaves(), x.mvw.Leaves()
	var wTotal int64
	var cum, cumPrev int64 // C(v−1) and C(v−2), tracked independently
	for v := 0; v < x.size; v++ {
		cn := int64(len(x.binsAt[v]))
		if cnt[v] != cn {
			return fmt.Errorf("loadvec: cnt leaf %d = %d, want %d", v, cnt[v], cn)
		}
		elig := cum // C(v−1) for plain, C(v−2) for strict
		if x.gap == 2 {
			elig = cumPrev
		}
		want := int64(v) * cn * elig // s[v] = v·count[v]·C(v−gap)
		if x.sval[v] != want {
			return fmt.Errorf("loadvec: sval[%d] = %d, want %d", v, x.sval[v], want)
		}
		if mvw[v] != want {
			return fmt.Errorf("loadvec: mvw leaf %d = %d, want %d", v, mvw[v], want)
		}
		cumPrev = cum
		cum += cn
		wTotal += want
	}
	if x.wTotal != wTotal {
		return fmt.Errorf("loadvec: cached W = %d, fresh %d", x.wTotal, wTotal)
	}
	return nil
}
