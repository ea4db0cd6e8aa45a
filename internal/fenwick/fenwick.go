// Package fenwick is the one prefix-sum tree shared by every layer that
// needs prefix sums with point updates: the level index's per-level
// move-weight and ball trees, the jump engine's graph move-weight index,
// and the open system's job sampler.
//
// The tree is a flat B-ary prefix-sum tree with B = 16, not a binary
// indexed one: level 0 is the leaf array and each level above holds the
// sums of up to B consecutive nodes of the level below, until a level has
// at most B nodes. Over n leaves that is max(1, ⌈log_B n⌉) levels — 3 at
// n = 4096, where a binary indexed tree walks 12 — so Add writes one slot
// per level, Find scans at most B sums per level from the top down, and
// Value and Total are O(1) reads. The package keeps the name it had as a
// Fenwick tree because the API and its contract (0-based leaves, the
// (leaf, residual) pair Find returns) did not change with the layout.
package fenwick

import "slices"

const (
	bits   = 4         // log2 of the fan-out
	fanout = 1 << bits // B: children per node above level 0
	// maxLevels bounds the level count for any int leaf count:
	// ⌈63/bits⌉ levels cover 2^63 leaves.
	maxLevels = (63 + bits - 1) / bits
)

// Tree holds prefix sums over n int64 leaves.
type Tree struct {
	sums   []int64            // every level, leaves first: level l is sums[off[l]:off[l+1]]
	off    [maxLevels + 1]int // level offsets into sums
	levels int                // number of levels (1 when n ≤ B)
	n      int                // number of leaves
	total  int64              // sum of all leaves
}

// New returns a zeroed tree over n leaves (n >= 0).
func New(n int) *Tree {
	t := &Tree{}
	t.Reset(n)
	return t
}

// Reset zeroes the tree and resizes it to n leaves (n >= 0), reusing the
// backing array when its capacity allows, so an index that rebuilds its
// trees as its range grows and shrinks allocates only on growth past the
// largest size it has held.
func (t *Tree) Reset(n int) {
	t.n, t.total = n, 0
	t.levels, t.off[0] = 1, 0
	for w := n; ; t.levels++ {
		t.off[t.levels] = t.off[t.levels-1] + w
		if w <= fanout {
			break
		}
		w = (w + fanout - 1) >> bits
	}
	if size := t.off[t.levels]; cap(t.sums) < size {
		t.sums = make([]int64, size)
	} else {
		t.sums = t.sums[:size]
		clear(t.sums)
	}
}

// N returns the number of leaves.
func (t *Tree) N() int { return t.n }

// Value returns leaf i.
func (t *Tree) Value(i int) int64 { return t.sums[i] }

// Total returns the sum of all leaves.
func (t *Tree) Total() int64 { return t.total }

// Add adds delta to leaf i, writing one slot per level.
func (t *Tree) Add(i int, delta int64) {
	t.total += delta
	t.sums[i] += delta
	for l := 1; l < t.levels; l++ {
		i >>= bits
		t.sums[t.off[l]+i] += delta
	}
}

// Prefix returns the sum of leaves [0, i]; i < 0 yields 0.
func (t *Tree) Prefix(i int) int64 {
	var s int64
	end := i + 1 // sum nodes [0, end) of the current level
	for l := 0; l < t.levels && end > 0; l++ {
		start := end &^ (fanout - 1) // the sums before it are one level up
		if l == t.levels-1 {
			start = 0
		}
		for _, v := range t.sums[t.off[l]+start : t.off[l]+end] {
			s += v
		}
		end >>= bits
	}
	return s
}

// Find returns the smallest leaf i with Prefix(i) > target, plus the
// residual target - Prefix(i-1), scanning at most B sums per level from
// the top down. Leaves must be nonnegative and the tree nonempty. A
// target ≥ Total() returns the last leaf, n−1, with residual
// target - Prefix(n−2): each level's last candidate is taken without a
// comparison, which is also why an in-range target never needs one.
func (t *Tree) Find(target int64) (int, int64) {
	lo, hi := 0, t.off[t.levels]-t.off[t.levels-1] // candidate nodes at the top level
	for l := t.levels - 1; ; l-- {
		row := t.sums[t.off[l]+lo : t.off[l]+hi]
		j := 0
		for ; j < len(row)-1 && row[j] <= target; j++ {
			target -= row[j]
		}
		i := lo + j
		if l == 0 {
			return i, target
		}
		lo, hi = i<<bits, min(i<<bits+fanout, t.off[l]-t.off[l-1])
	}
}

// Leaves returns a fresh slice of the n leaf values.
func (t *Tree) Leaves() []int64 { return slices.Clone(t.sums[:t.n]) }

// Clone deep-copies the tree.
func (t *Tree) Clone() *Tree {
	cp := *t
	cp.sums = slices.Clone(t.sums)
	return &cp
}
