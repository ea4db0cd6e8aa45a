package fenwick

import (
	"fmt"
	"math/rand"
	"testing"
)

// naive mirrors a Tree with a plain slice.
type naive []int64

func (v naive) prefix(i int) int64 {
	var s int64
	for j := 0; j <= i && j < len(v); j++ {
		s += v[j]
	}
	return s
}

// find returns the smallest leaf whose prefix exceeds target, or the
// last leaf when none does, with the residual left after the leaves
// before it.
func (v naive) find(target int64) (int, int64) {
	for i := 0; i < len(v)-1; i++ {
		if target < v[i] {
			return i, target
		}
		target -= v[i]
	}
	return len(v) - 1, target
}

// from builds a tree holding vals by point updates.
func from(vals []int64) *Tree {
	t := New(len(vals))
	for i, v := range vals {
		t.Add(i, v)
	}
	return t
}

// levelSizes are the leaf counts at and around every level boundary of
// the B-ary layout (B = fanout), plus the sizes the engines use.
var levelSizes = []int{
	0, 1, 2, 3, 7, 8, 9, fanout - 1, fanout, fanout + 1, 64, 100,
	fanout*fanout - 1, fanout * fanout, fanout*fanout + 1, 4096, 16385,
}

// checkState compares every read of tr against vals: Value, Total,
// Leaves, and Find exhaustively over [0, total), walking the leaves so
// each expected (leaf, residual) pair costs O(1).
func checkState(t *testing.T, tag string, tr *Tree, vals naive) {
	t.Helper()
	if tr.N() != len(vals) {
		t.Fatalf("%s: N() = %d, want %d", tag, tr.N(), len(vals))
	}
	leaves := tr.Leaves()
	if len(leaves) != len(vals) {
		t.Fatalf("%s: len(Leaves()) = %d, want %d", tag, len(leaves), len(vals))
	}
	var total int64
	for i, v := range vals {
		if leaves[i] != v || tr.Value(i) != v {
			t.Fatalf("%s: leaf %d: Leaves %d, Value %d, want %d", tag, i, leaves[i], tr.Value(i), v)
		}
		for r := int64(0); r < v; r++ {
			if gi, grem := tr.Find(total + r); gi != i || grem != r {
				t.Fatalf("%s: Find(%d) = (%d,%d), want (%d,%d)", tag, total+r, gi, grem, i, r)
			}
		}
		total += v
	}
	if tr.Total() != total {
		t.Fatalf("%s: Total() = %d, want %d", tag, tr.Total(), total)
	}
}

func TestTreeAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range levelSizes {
		vals := make(naive, n)
		for i := range vals {
			vals[i] = int64(r.Intn(5))
		}
		tr := from(vals)
		for step := 0; n > 0 && step < 200; step++ {
			i := r.Intn(n)
			d := int64(r.Intn(7) - 2)
			if vals[i]+d < 0 {
				d = -vals[i]
			}
			vals[i] += d
			tr.Add(i, d)

			j := r.Intn(n)
			if got, want := tr.Prefix(j), vals.prefix(j); got != want {
				t.Fatalf("n=%d Prefix(%d) = %d, want %d", n, j, got, want)
			}
			if total := vals.prefix(n - 1); total > 0 {
				target := int64(r.Intn(int(total)))
				gi, grem := tr.Find(target)
				wi, wrem := vals.find(target)
				if gi != wi || grem != wrem {
					t.Fatalf("n=%d Find(%d) = (%d,%d), want (%d,%d)", n, target, gi, grem, wi, wrem)
				}
			}
		}
		if tr.Prefix(-1) != 0 {
			t.Fatalf("Prefix(-1) = %d, want 0", tr.Prefix(-1))
		}
		for i := 0; i < n; i++ {
			if got, want := tr.Prefix(i), vals.prefix(i); got != want {
				t.Fatalf("n=%d Prefix(%d) = %d, want %d", n, i, got, want)
			}
		}
		checkState(t, fmt.Sprintf("n=%d", n), tr, vals)
		cl := tr.Clone()
		if n > 0 {
			cl.Add(0, 100)
			if tr.Prefix(0) == cl.Prefix(0) || tr.Total() == cl.Total() {
				t.Fatal("Clone shares state with the original")
			}
		}
	}
}

// TestFindOutOfRange checks the documented contract for targets at or
// past the total: the last leaf, with the residual left after the leaves
// before it — on sizes that are and are not powers of two and multiples
// of the fan-out, with unit and with zero-padded leaves.
func TestFindOutOfRange(t *testing.T) {
	for _, n := range []int{1, 4, 5, 8, fanout - 1, fanout, fanout + 1, 3 * fanout, fanout*fanout - 1, fanout * fanout, fanout*fanout + 1, 4096} {
		ones := make(naive, n)
		padded := make(naive, n) // the last leaf empty: Find must not skip past it
		for i := range ones {
			ones[i] = 1
			if i < n-1 {
				padded[i] = 2
			}
		}
		for name, vals := range map[string]naive{"ones": ones, "padded": padded} {
			tr := from(vals)
			total := vals.prefix(n - 1)
			for _, target := range []int64{total, total + 1, total + 2, total + 1000} {
				gi, grem := tr.Find(target)
				if want := target - vals.prefix(n-2); gi != n-1 || grem != want {
					t.Fatalf("%s n=%d Find(%d) = (%d,%d), want (%d,%d)", name, n, target, gi, grem, n-1, want)
				}
			}
		}
	}
}

// TestReset checks that a reset tree, shrunk or grown — across level
// counts in both directions — behaves exactly like a fresh one of the new
// size, and that a reset within capacity allocates nothing, including
// when the number of levels shrinks and then grows back.
func TestReset(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	tr := New(16385)
	for i := 0; i < 16385; i++ {
		tr.Add(i, int64(r.Intn(9)))
	}
	for _, n := range []int{5, 1, 0, fanout, 33, fanout*fanout + 1, 64, 4096, fanout - 1, 16385, 100} {
		tr.Reset(n)
		if tr.N() != n || tr.Total() != 0 {
			t.Fatalf("Reset(%d): N() = %d, Total() = %d", n, tr.N(), tr.Total())
		}
		vals := make(naive, n)
		for i := range vals {
			vals[i] = int64(r.Intn(5))
			tr.Add(i, vals[i])
		}
		for step := 0; n > 0 && step < 100; step++ {
			i := r.Intn(n)
			vals[i]++
			tr.Add(i, 1)
		}
		tag := fmt.Sprintf("Reset(%d)", n)
		checkState(t, tag, tr, vals)
		fresh := from(vals)
		for i := 0; i < n; i++ {
			if got, want := tr.Prefix(i), fresh.Prefix(i); got != want {
				t.Fatalf("%s: Prefix(%d) = %d, fresh tree gives %d", tag, i, got, want)
			}
		}
	}
	big := New(16385)
	if allocs := testing.AllocsPerRun(10, func() {
		big.Reset(16)
		big.Reset(fanout*fanout + 1)
		big.Reset(0)
		big.Reset(16385)
	}); allocs != 0 {
		t.Fatalf("Reset within capacity allocated %v times", allocs)
	}
}

// BenchmarkTree times the tree's two hot operations at a two-, a three-
// and a four-level size: add (one point update) and find (one descent at
// a uniform target); 4096 ops per iteration, ns/op per op.
func BenchmarkTree(b *testing.B) {
	const batch = 4096
	for _, op := range []string{"add", "find"} {
		for _, n := range []int{64, 4096, 65536} {
			b.Run(fmt.Sprintf("%s/n=%d", op, n), func(b *testing.B) {
				r := rand.New(rand.NewSource(1))
				tr := New(n)
				for i := 0; i < n; i++ {
					tr.Add(i, int64(1+r.Intn(16)))
				}
				idx := make([]int, batch)
				targets := make([]int64, batch)
				for j := range idx {
					idx[j] = r.Intn(n)
					targets[j] = r.Int63n(tr.Total())
				}
				var sink int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if op == "add" {
						for _, leaf := range idx {
							tr.Add(leaf, 1)
						}
					} else {
						for _, x := range targets {
							leaf, _ := tr.Find(x)
							sink += leaf
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/op")
				benchSink = sink
			})
		}
	}
}

var benchSink int
