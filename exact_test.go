package rls

// exact_test.go anchors the balancing-time law to the exact answer rather
// than to another engine. On the complete topology the process lumps to
// sorted load vectors: a ball in a level-a bin moves to a level-b bin at
// rate c_a·c_b·a/n (c_v bins at level v) whenever a ≥ b+2, and the neutral
// move a = b+1 leaves the sorted vector unchanged, so it is a self-loop
// and the strict tie rule has the same lumped chain. Every other move
// strictly lowers Σℓ², so the chain is acyclic and
//
//	τ(s) = (1 + Σ r·τ(s′)) / Σ r,   τ(s) = 0 once max − min ≤ 1,
//
// gives E[T] by one memoized pass over the states. The engine-vs-engine
// KS gates cannot see a fault shared by every engine (the placement, the
// time model, the stop rule, a draw kernel); this gate can.

import (
	"math"
	"testing"
)

// exactMeanBalanceTime returns the exact E[T] to perfect balance from the
// all-in-one start with n bins and m balls.
func exactMeanBalanceTime(n, m int) float64 {
	if m > 255 {
		panic("exactMeanBalanceTime: loads must fit a byte")
	}
	memo := map[string]float64{}
	var tau func(s []byte) float64
	// s is sorted descending.
	tau = func(s []byte) float64 {
		if int(s[0])-int(s[len(s)-1]) <= 1 {
			return 0
		}
		if v, ok := memo[string(s)]; ok {
			return v
		}
		// Runs of equal loads: level v occupies s[first:last+1].
		type run struct{ v, first, last int }
		var runs []run
		for i, v := range s {
			if i == 0 || int(v) != runs[len(runs)-1].v {
				runs = append(runs, run{int(v), i, i})
			} else {
				runs[len(runs)-1].last = i
			}
		}
		num, rate := 1.0, 0.0
		next := make([]byte, len(s))
		for _, a := range runs {
			for _, b := range runs {
				if a.v < b.v+2 {
					continue
				}
				ca, cb := a.last-a.first+1, b.last-b.first+1
				r := float64(ca*cb*a.v) / float64(n)
				// Lowering the last level-a bin and raising the first
				// level-b bin keeps the vector sorted.
				copy(next, s)
				next[a.last]--
				next[b.first]++
				rate += r
				num += r * tau(append([]byte(nil), next...))
			}
		}
		v := num / rate
		memo[string(s)] = v
		return v
	}
	s := make([]byte, n)
	s[0] = byte(m)
	return tau(s)
}

func TestExactMeanBalanceTimeValues(t *testing.T) {
	for _, c := range []struct {
		n, m int
		want float64
	}{
		{8, 8, 6.50380},
		{16, 16, 13.29458},
		{8, 32, 4.18348},
		{24, 24, 19.97251},
		{1, 5, 0},
		{2, 2, 1},           // one move at rate 1·1·2/2
		{2, 4, 0.5 + 2.0/3}, // (4,0) → (3,1) at rate 2, then (3,1) → (2,2) at rate 3/2
	} {
		if got := exactMeanBalanceTime(c.n, c.m); math.Abs(got-c.want) > 5e-6 {
			t.Errorf("exact E[T](n=%d, m=%d) = %.6f, want %.5f", c.n, c.m, got, c.want)
		}
	}
}

// TestExactMeanBalanceTimeGate gates the mean balancing time of the
// direct, jump and strict-jump engines against the exact E[T] with a
// two-sided z-test at α = 0.001 per cell (|z| ≤ 3.2905), over 20 000 runs
// each from the all-in-one start. Each engine draws its seeds from its
// own salted sequence so no two engines share a stream.
func TestExactMeanBalanceTimeGate(t *testing.T) {
	const (
		reps  = 20000
		zCrit = 3.2905 // two-sided, α = 0.001
	)
	engines := []struct {
		name string
		salt uint64
		opts []Option
	}{
		{"direct", 0, nil},
		{"jump", 0x9e3779b97f4a7c15, []Option{WithEngineMode(JumpEngine)}},
		{"strict-jump", 0xbf58476d1ce4e5b9, []Option{WithEngineMode(JumpEngine), WithStrictTieRule()}},
	}
	for _, cell := range []struct{ n, m int }{{8, 8}, {16, 16}, {8, 32}} {
		want := exactMeanBalanceTime(cell.n, cell.m)
		for _, eng := range engines {
			var sum, sumSq float64
			for i := 0; i < reps; i++ {
				seed := (1 + uint64(i)*0x5851f42d4c957f2d) ^ eng.salt
				opts := append([]Option{WithSeed(seed)}, eng.opts...)
				res, err := New(cell.n, cell.m, opts...).Run()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Reached {
					t.Fatalf("%s n=%d m=%d seed %d: target not reached", eng.name, cell.n, cell.m, seed)
				}
				sum += res.Time
				sumSq += res.Time * res.Time
			}
			mean := sum / reps
			sd := math.Sqrt((sumSq - reps*mean*mean) / (reps - 1))
			z := (mean - want) / (sd / math.Sqrt(reps))
			if math.Abs(z) > zCrit {
				t.Errorf("%s n=%d m=%d: mean T %.5f vs exact %.5f (z = %.2f, |z| > %.4f)",
					eng.name, cell.n, cell.m, mean, want, z, zCrit)
			} else {
				t.Logf("%s n=%d m=%d: mean T %.5f vs exact %.5f (z = %+.2f)", eng.name, cell.n, cell.m, mean, want, z)
			}
		}
	}
}
