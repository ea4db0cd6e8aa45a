package loadvec

import "fmt"

// Shard-local state and global reconciliation for the sharded engine
// (internal/sim/sharded.go): each shard owns a contiguous bin range as its
// own Config, and the global stop-condition view — min/max load, ball
// count, discrepancy — is *folded* from the per-shard histograms instead
// of being recomputed from a concatenated load vector. Folding is O(P)
// for P shards because each Config already tracks its own min/max/m per
// move, so a barrier's whole FoldedStats refresh reads P structs and never
// rebuilds or rescans a load vector.

// Partition splits a load vector into parts contiguous, near-equal bin
// ranges (range i is [i·n/parts, (i+1)·n/parts)), each returned as an
// independent copy. It panics unless 1 ≤ parts ≤ len(v).
func Partition(v Vector, parts int) []Vector {
	if parts < 1 || parts > len(v) {
		panic("loadvec: Partition with parts outside [1, len(v)]")
	}
	out := make([]Vector, parts)
	for i := 0; i < parts; i++ {
		lo, hi := PartitionRange(len(v), parts, i)
		out[i] = v[lo:hi].Clone()
	}
	return out
}

// PartitionRange returns the half-open global bin range [lo, hi) owned by
// part i of a parts-way contiguous partition of n bins.
func PartitionRange(n, parts, i int) (lo, hi int) {
	return i * n / parts, (i + 1) * n / parts
}

// PartitionOwner returns the index of the part owning global bin `bin`
// under the same partition as PartitionRange, in O(1): the candidate
// bin·parts/n is exact up to the ±1 rounding of the range boundaries.
func PartitionOwner(n, parts, bin int) int {
	i := bin * parts / n
	for lo, _ := PartitionRange(n, parts, i); bin < lo; lo, _ = PartitionRange(n, parts, i) {
		i--
	}
	for _, hi := PartitionRange(n, parts, i); bin >= hi; _, hi = PartitionRange(n, parts, i) {
		i++
	}
	return i
}

// Cuts returns the boundary vector of the canonical parts-way contiguous
// partition of n bins: part i owns [cuts[i], cuts[i+1]) with the same
// boundaries as PartitionRange. Explicit cuts are the dynamic form of the
// partition — the sharded engine's repartitioning moves them at epoch
// barriers — so cuts[0] = 0, cuts[parts] = n, and the sequence is strictly
// increasing (every part owns at least one bin). It panics unless
// 1 ≤ parts ≤ n.
func Cuts(n, parts int) []int {
	if parts < 1 || parts > n {
		panic("loadvec: Cuts with parts outside [1, n]")
	}
	cuts := make([]int, parts+1)
	for i := 1; i <= parts; i++ {
		cuts[i] = i * n / parts
	}
	return cuts
}

// CutsOwner returns the index of the part owning global bin `bin` under
// the partition described by a strictly increasing boundary vector (as
// produced by Cuts or BalancedCuts), by binary search in O(log parts).
func CutsOwner(cuts []int, bin int) int {
	// Invariant: cuts[lo] <= bin < cuts[hi].
	lo, hi := 0, len(cuts)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if cuts[mid] <= bin {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ValidateCuts checks that cuts describes a parts-way contiguous partition
// of n bins: length parts+1, endpoints 0 and n, strictly increasing.
func ValidateCuts(cuts []int, n int) error {
	if len(cuts) < 2 {
		return fmt.Errorf("loadvec: cuts %v too short", cuts)
	}
	if cuts[0] != 0 || cuts[len(cuts)-1] != n {
		return fmt.Errorf("loadvec: cuts %v do not span [0, %d)", cuts, n)
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			return fmt.Errorf("loadvec: cuts %v not strictly increasing at %d", cuts, i)
		}
	}
	return nil
}

// BalancedCuts places the parts−1 interior boundaries of a contiguous
// partition so that every part carries a near-equal share of the given
// per-bin weights: boundary j sits at the smallest bin where the weight
// prefix reaches j/parts of the total, subject to every part owning at
// least one bin. This is the repartitioning policy's placement step — the
// sharded engine passes per-bin ball counts (activation mass), computes
// new cuts at an epoch barrier, and migrates the boundary bins. The
// result is a pure function of (weights, parts), which is what keeps
// repartitioned runs reproducible from a fixed seed. Weights must be nonnegative; it panics unless
// 1 ≤ parts ≤ len(weights).
func BalancedCuts(weights []int64, parts int) []int {
	n := len(weights)
	if parts < 1 || parts > n {
		panic("loadvec: BalancedCuts with parts outside [1, len(weights)]")
	}
	var total int64
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("loadvec: BalancedCuts with negative weight at bin %d", i))
		}
		total += w
	}
	cuts := make([]int, parts+1)
	cuts[parts] = n
	var acc int64
	bin := 0
	for j := 1; j < parts; j++ {
		target := total * int64(j) / int64(parts)
		// Leave room so parts j..parts-1 each still get ≥ 1 bin, and take at
		// least one bin past the previous cut so the sequence stays strictly
		// increasing even through zero-weight stretches or one dominant bin.
		room := n - (parts - j)
		for bin < room && (acc < target || bin == cuts[j-1]) {
			acc += weights[bin]
			bin++
		}
		cuts[j] = bin
	}
	return cuts
}

// FoldedStats is the global view of a sharded configuration: the exact
// bin count, ball count, and extreme loads of the union of the per-shard
// configurations, from which the global discrepancy and the balance
// stop conditions follow. The zero value describes an empty system.
type FoldedStats struct {
	N, M     int
	Min, Max int
}

// FoldStats folds per-shard Configs into the global stats in O(P). It
// panics on an empty shard list.
func FoldStats(parts ...*Config) FoldedStats {
	if len(parts) == 0 {
		panic("loadvec: FoldStats with no shards")
	}
	f := FoldedStats{Min: parts[0].Min(), Max: parts[0].Max()}
	for _, c := range parts {
		f.N += c.N()
		f.M += c.M()
		if c.Min() < f.Min {
			f.Min = c.Min()
		}
		if c.Max() > f.Max {
			f.Max = c.Max()
		}
	}
	return f
}

// Avg returns the global average load ∅ = M/N.
func (f FoldedStats) Avg() float64 {
	if f.N == 0 {
		return 0
	}
	return float64(f.M) / float64(f.N)
}

// Disc returns the global discrepancy max(Max−∅, ∅−Min).
func (f FoldedStats) Disc() float64 {
	avg := f.Avg()
	hi := float64(f.Max) - avg
	lo := avg - float64(f.Min)
	if hi > lo {
		return hi
	}
	return lo
}

// IsPerfect reports global perfect balance (disc < 1 ⟺ Max−Min ≤ 1).
func (f FoldedStats) IsPerfect() bool { return f.Max-f.Min <= 1 }

// IsBalanced reports global x-balancedness.
func (f FoldedStats) IsBalanced(x float64) bool { return f.Disc() <= x }
