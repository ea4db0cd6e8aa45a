package loadvec

import (
	"fmt"

	"repro/internal/rng"
)

// A Generator produces an initial configuration of m balls in n bins.
// Generators are the experiment workloads: the paper's analysis starts
// from arbitrary configurations, its lower bounds from two specific ones,
// and the §2 comparisons from one-choice and two-choice placements.
type Generator interface {
	// Generate returns a fresh load vector with n bins and m balls.
	Generate(n, m int, r *rng.RNG) Vector
	// Name identifies the generator in tables and logs.
	Name() string
}

// genFunc adapts a function to the Generator interface.
type genFunc struct {
	name string
	fn   func(n, m int, r *rng.RNG) Vector
}

func (g genFunc) Generate(n, m int, r *rng.RNG) Vector { return g.fn(n, m, r) }
func (g genFunc) Name() string                         { return g.name }

// AllInOne places every ball in bin 0 — the paper's worst case, used for
// the Ω(ln n) lower bound and as the canonical Phase-1 start (Lemma 2
// reduces arbitrary configurations to this one).
func AllInOne() Generator {
	return genFunc{"all-in-one", func(n, m int, _ *rng.RNG) Vector {
		v := make(Vector, n)
		v[0] = m
		return v
	}}
}

// OneChoice throws each ball into a uniformly random bin — the classical
// one-choice placement with Θ(ln n / ln ln n) discrepancy at m = n.
func OneChoice() Generator {
	return genFunc{"one-choice", func(n, m int, r *rng.RNG) Vector {
		v := make(Vector, n)
		for b := 0; b < m; b++ {
			v[r.Intn(n)]++
		}
		return v
	}}
}

// TwoChoice places each ball greedily in the lesser loaded of two uniform
// bins (Greedy[2], [17]); discrepancy O(ln ln n). This is the initial
// placement of the [9] comparison (experiment CMP1).
func TwoChoice() Generator { return DChoice(2) }

// DChoice generalizes to Greedy[d]: each ball samples d bins and joins the
// least loaded.
func DChoice(d int) Generator {
	if d < 1 {
		panic("loadvec: DChoice with d < 1")
	}
	return genFunc{fmt.Sprintf("%d-choice", d), func(n, m int, r *rng.RNG) Vector {
		v := make(Vector, n)
		for b := 0; b < m; b++ {
			best := r.Intn(n)
			for j := 1; j < d; j++ {
				cand := r.Intn(n)
				if v[cand] < v[best] {
					best = cand
				}
			}
			v[best]++
		}
		return v
	}}
}

// Balanced spreads balls as evenly as possible: every bin gets ⌊m/n⌋ and
// the first m mod n bins one extra. The result is perfectly balanced.
func Balanced() Generator {
	return genFunc{"balanced", func(n, m int, _ *rng.RNG) Vector {
		v := make(Vector, n)
		q, rem := m/n, m%n
		for i := range v {
			v[i] = q
			if i < rem {
				v[i]++
			}
		}
		return v
	}}
}

// DeltaPair starts from the balanced configuration and moves delta balls
// from bin 1 to bin 0, producing one bin at ∅+δ and one at ∅−δ.
// DeltaPair(1) is exactly the paper's Ω(n²/m) lower-bound instance
// (one bin at ∅+1, one at ∅−1, the rest at ∅).
func DeltaPair(delta int) Generator {
	if delta < 1 {
		panic("loadvec: DeltaPair with delta < 1")
	}
	return genFunc{fmt.Sprintf("delta-pair(%d)", delta), func(n, m int, r *rng.RNG) Vector {
		if n < 2 {
			panic("loadvec: DeltaPair needs n >= 2")
		}
		v := Balanced().Generate(n, m, r)
		if v[1] < delta {
			panic(fmt.Sprintf("loadvec: DeltaPair(%d) needs average load >= %d", delta, delta))
		}
		v[0] += delta
		v[1] -= delta
		return v
	}}
}

// ImbalancedPairs starts balanced, then creates `pairs` disjoint (+1, −1)
// bin pairs — the Phase-3 workload with exactly A = pairs overloaded
// balls (requires n ≥ 2·pairs and n | m for the clean interpretation).
func ImbalancedPairs(pairs int) Generator {
	if pairs < 1 {
		panic("loadvec: ImbalancedPairs with pairs < 1")
	}
	return genFunc{fmt.Sprintf("pairs(%d)", pairs), func(n, m int, r *rng.RNG) Vector {
		if n < 2*pairs {
			panic("loadvec: ImbalancedPairs needs n >= 2*pairs")
		}
		v := Balanced().Generate(n, m, r)
		for p := 0; p < pairs; p++ {
			hi, lo := 2*p, 2*p+1
			if v[lo] == 0 {
				panic("loadvec: ImbalancedPairs needs average load >= 1")
			}
			v[hi]++
			v[lo]--
		}
		return v
	}}
}

// HalfSpread produces the Lemma 13 shape: the first ⌊n/2⌋ bins at ∅+x,
// the rest at ∅−x (adjusted at bin 0 for parity/divisibility remainders
// so exactly m balls are placed). It requires x ≤ ∅.
func HalfSpread(x int) Generator {
	if x < 0 {
		panic("loadvec: HalfSpread with negative x")
	}
	return genFunc{fmt.Sprintf("half-spread(%d)", x), func(n, m int, r *rng.RNG) Vector {
		v := Balanced().Generate(n, m, r)
		half := n / 2
		for i := 0; i < half; i++ {
			heavy, light := i, n-1-i
			if v[light] < x {
				panic("loadvec: HalfSpread needs x <= average load")
			}
			v[heavy] += x
			v[light] -= x
		}
		return v
	}}
}

// FromVector always returns a copy of a fixed vector; n and m arguments
// must match it.
func FromVector(fixed Vector) Generator {
	return genFunc{"fixed", func(n, m int, _ *rng.RNG) Vector {
		if n != len(fixed) || m != fixed.Balls() {
			panic("loadvec: FromVector with mismatched n or m")
		}
		return fixed.Clone()
	}}
}
