package core

import "repro/internal/loadvec"

// MoveKind classifies a ball movement from a source to a destination bin
// exactly as in §4 and Figure 1 of the paper.
type MoveKind int

const (
	// Illegal marks src == dst or an empty source bin.
	Illegal MoveKind = iota
	// RLSMove is a valid protocol move that is not destructive:
	// ℓ_src ≥ ℓ_dst + 2.
	RLSMove
	// Neutral is both a valid protocol move and a destructive move:
	// ℓ_src = ℓ_dst + 1.
	Neutral
	// Destructive is the reversal of a valid protocol move and not itself
	// valid: ℓ_src ≤ ℓ_dst.
	Destructive
)

// String renders the move kind.
func (k MoveKind) String() string {
	switch k {
	case RLSMove:
		return "rls"
	case Neutral:
		return "neutral"
	case Destructive:
		return "destructive"
	default:
		return "illegal"
	}
}

// Classify returns the kind of the move of one ball from src to dst in
// configuration v.
//
// Per §4: a movement from i to j is a *valid protocol move* iff
// ℓ_i ≥ ℓ_j + 1 and *destructive* iff ℓ_i ≤ ℓ_j + 1; the overlap
// ℓ_i = ℓ_j + 1 is a *neutral* move.
func Classify(v loadvec.Vector, src, dst int) MoveKind {
	if src == dst || src < 0 || dst < 0 || src >= len(v) || dst >= len(v) || v[src] == 0 {
		return Illegal
	}
	switch diff := v[src] - v[dst]; {
	case diff >= 2:
		return RLSMove
	case diff == 1:
		return Neutral
	default:
		return Destructive
	}
}

// IsDestructiveMove reports whether moving a ball src→dst is destructive
// (ℓ_src ≤ ℓ_dst + 1), i.e. the reversal of a valid protocol move.
func IsDestructiveMove(v loadvec.Vector, src, dst int) bool {
	k := Classify(v, src, dst)
	return k == Destructive || k == Neutral
}
