// Package loadvec provides the load-configuration machinery shared by all
// protocols: plain load vectors with the paper's §3 statistics
// (discrepancy, balancedness, overloaded balls), an incrementally tracked
// Config that supports O(1) per-move bookkeeping, and the initial-
// configuration generators used by the experiments.
//
// Terminology follows the paper: a configuration ℓ = (ℓ_1, ..., ℓ_n) has
// average load ∅ = m/n, discrepancy disc(ℓ) = max_i |ℓ_i − ∅|, is
// x-balanced if disc(ℓ) ≤ x and perfectly balanced if disc(ℓ) < 1.
package loadvec

import (
	"fmt"
	"sort"
)

// Vector is a plain load vector: Vector[i] is the number of balls in bin i.
type Vector []int

// Clone returns a deep copy.
func (v Vector) Clone() Vector {
	return append(Vector(nil), v...)
}

// Balls returns the total number of balls m = Σ ℓ_i.
func (v Vector) Balls() int {
	m := 0
	for _, x := range v {
		m += x
	}
	return m
}

// Avg returns the average load ∅ = m/n.
func (v Vector) Avg() float64 {
	if len(v) == 0 {
		return 0
	}
	return float64(v.Balls()) / float64(len(v))
}

// MinMax returns the minimum and maximum loads. It panics on an empty
// vector.
func (v Vector) MinMax() (min, max int) {
	if len(v) == 0 {
		panic("loadvec: MinMax of empty vector")
	}
	min, max = v[0], v[0]
	for _, x := range v[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return
}

// Disc returns the discrepancy disc(ℓ) = max_i |ℓ_i − ∅|.
func (v Vector) Disc() float64 {
	min, max := v.MinMax()
	avg := v.Avg()
	hi := float64(max) - avg
	lo := avg - float64(min)
	if hi > lo {
		return hi
	}
	return lo
}

// IsBalanced reports whether the configuration is x-balanced
// (disc(ℓ) ≤ x).
func (v Vector) IsBalanced(x float64) bool { return v.Disc() <= x }

// IsPerfect reports whether the configuration is perfectly balanced
// (disc(ℓ) < 1). For integer loads this is equivalent to max−min ≤ 1:
// max−min = 0 means all loads equal ∅ exactly, and max−min = 1 forces
// n ∤ m, in which case both occurring loads ⌊∅⌋ and ⌈∅⌉ are within
// distance < 1 of ∅.
func (v Vector) IsPerfect() bool {
	min, max := v.MinMax()
	return max-min <= 1
}

// SortedDesc returns a copy sorted non-increasingly, the canonical form
// used throughout the Lemma 2 coupling ("we may let both ℓ and ℓ′ be
// sorted non-increasingly").
func (v Vector) SortedDesc() Vector {
	s := v.Clone()
	sort.Sort(sort.Reverse(sort.IntSlice(s)))
	return s
}

// Equal reports element-wise equality.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// Validate checks structural invariants (no negative loads) and that the
// vector carries exactly wantBalls balls; it returns a descriptive error.
func (v Vector) Validate(wantBalls int) error {
	total := 0
	for i, x := range v {
		if x < 0 {
			return fmt.Errorf("loadvec: bin %d has negative load %d", i, x)
		}
		total += x
	}
	if total != wantBalls {
		return fmt.Errorf("loadvec: have %d balls, want %d", total, wantBalls)
	}
	return nil
}

// String renders the vector compactly.
func (v Vector) String() string {
	return fmt.Sprintf("%v", []int(v))
}
