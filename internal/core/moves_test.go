package core

import (
	"testing"
	"testing/quick"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

func TestClassifyBasic(t *testing.T) {
	v := loadvec.Vector{5, 3, 4, 4, 0}
	cases := []struct {
		src, dst int
		want     MoveKind
	}{
		{0, 1, RLSMove},     // 5 -> 3: improvement by 2
		{0, 2, Neutral},     // 5 -> 4: both valid and destructive
		{2, 3, Destructive}, // 4 -> 4: equal loads
		{1, 0, Destructive}, // 3 -> 5: uphill
		{0, 4, RLSMove},     // 5 -> 0
		{4, 0, Illegal},     // empty source
		{1, 1, Illegal},     // same bin
		{-1, 0, Illegal},
		{0, 9, Illegal},
	}
	for _, c := range cases {
		if got := Classify(v, c.src, c.dst); got != c.want {
			t.Errorf("Classify(%d→%d) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestMoveKindString(t *testing.T) {
	for k, want := range map[MoveKind]string{
		RLSMove: "rls", Neutral: "neutral", Destructive: "destructive", Illegal: "illegal",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

// §4: "a movement is destructive if and only if it is the reversal of a
// valid protocol move". Property test of the involution.
func TestDestructiveIsReversalOfProtocolMove(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(10)
		v := make(loadvec.Vector, n)
		for i := range v {
			v[i] = r.Intn(6)
		}
		src := r.Intn(n)
		dst := r.Intn(n)
		if src == dst || v[src] == 0 {
			return true
		}
		if IsProtocolMove(v, src, dst) {
			after := v.Clone()
			after[src]--
			after[dst]++
			if !IsDestructiveMove(after, dst, src) {
				return false
			}
		}
		if IsDestructiveMove(v, src, dst) {
			after := v.Clone()
			after[src]--
			after[dst]++
			if after[dst] == 0 {
				return true // reverse source empty; reversal undefined
			}
			if !IsProtocolMove(after, dst, src) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// §4: a move is neutral iff ℓ_src = ℓ_dst + 1, and neutral moves are
// exactly the moves that are both protocol-valid and destructive
// (Figure 1's middle category).
func TestNeutralIsIntersection(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(8)
		v := make(loadvec.Vector, n)
		for i := range v {
			v[i] = r.Intn(5)
		}
		src := r.Intn(n)
		dst := r.Intn(n)
		if src == dst || v[src] == 0 {
			return true
		}
		both := IsProtocolMove(v, src, dst) && IsDestructiveMove(v, src, dst)
		return both == (Classify(v, src, dst) == Neutral)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// Figure 1 regeneration check: in the staircase configuration every
// downhill move by ≥ 2 is RLS-only, every move between loads differing by
// exactly 1 downhill is neutral, everything else (non-illegal) is
// destructive.
func TestClassifyFigure1Staircase(t *testing.T) {
	v := loadvec.Vector{7, 6, 6, 5, 4, 4, 3, 2, 2, 2, 1, 1, 1, 1, 1, 0}
	for src := range v {
		for dst := range v {
			if src == dst {
				continue
			}
			got := Classify(v, src, dst)
			var want MoveKind
			switch {
			case v[src] == 0:
				want = Illegal
			case v[src]-v[dst] >= 2:
				want = RLSMove
			case v[src]-v[dst] == 1:
				want = Neutral
			default:
				want = Destructive
			}
			if got != want {
				t.Fatalf("move %d(%d)→%d(%d): got %v want %v", src, v[src], dst, v[dst], got, want)
			}
		}
	}
}

// IsProtocolMove reports whether moving a ball src→dst is permitted by RLS
// (ℓ_src ≥ ℓ_dst + 1).
func IsProtocolMove(v loadvec.Vector, src, dst int) bool {
	k := Classify(v, src, dst)
	return k == RLSMove || k == Neutral
}
