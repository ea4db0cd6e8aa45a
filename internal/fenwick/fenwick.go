// Package fenwick is the one Fenwick (binary indexed) tree shared by
// every layer that needs prefix sums with point updates: the level
// index's per-level move-weight and ball trees, the jump engine's graph
// move-weight index, and the open system's job sampler.
//
// The API is 0-based on the outside (leaf i ∈ [0, n)) and 1-based
// internally, as usual for Fenwick trees. All operations are O(log n)
// except Leaves and Clone, which are O(n).
package fenwick

// Tree holds cumulative sums over n int64 leaves.
type Tree struct {
	tree []int64 // 1-based implicit tree; tree[0] unused
	n    int
	top  int // highest power of two <= n, the descend start for Find
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
	if cap(t.tree) < n+1 {
		t.tree = make([]int64, n+1)
	} else {
		t.tree = t.tree[:n+1]
		clear(t.tree)
	}
	t.n, t.top = n, 1
	for t.top<<1 <= n {
		t.top <<= 1
	}
}

// N returns the number of leaves.
func (t *Tree) N() int { return t.n }

// Add adds delta to leaf i.
func (t *Tree) Add(i int, delta int64) {
	for pos := i + 1; pos <= t.n; pos += pos & (-pos) {
		t.tree[pos] += delta
	}
}

// Prefix returns the sum of leaves [0, i]; i < 0 yields 0.
func (t *Tree) Prefix(i int) int64 {
	var s int64
	for pos := i + 1; pos > 0; pos -= pos & (-pos) {
		s += t.tree[pos]
	}
	return s
}

// Find returns the smallest leaf i with Prefix(i) > target, plus the
// residual target - Prefix(i-1), by descending power-of-two strides.
// target must satisfy 0 <= target < Prefix(n-1); out-of-range targets
// return the last leaf.
func (t *Tree) Find(target int64) (int, int64) {
	pos := 0
	for step := t.top; step > 0; step >>= 1 {
		if next := pos + step; next <= t.n && t.tree[next] <= target {
			pos = next
			target -= t.tree[next]
		}
	}
	return pos, target // pos is the 1-based predecessor == 0-based answer
}

// Leaves returns a fresh slice of the n leaf values in O(n): node j
// holds its own leaf plus the partial sums of its children i (those with
// i + i&(−i) = j), so subtracting each child from its parent unwinds it.
func (t *Tree) Leaves() []int64 {
	vals := make([]int64, t.n)
	copy(vals, t.tree[1:])
	for i := t.n; i >= 1; i-- {
		if j := i + i&(-i); j <= t.n {
			vals[j-1] -= vals[i-1]
		}
	}
	return vals
}

// Clone deep-copies the tree.
func (t *Tree) Clone() *Tree {
	return &Tree{tree: append([]int64(nil), t.tree...), n: t.n, top: t.top}
}
