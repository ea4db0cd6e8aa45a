// Package sim provides the continuous-time simulation engine on which the
// paper's process runs.
//
// Each of the m balls carries an independent exponential clock of rate 1
// (§3). The superposition of m such clocks is a Poisson process of rate m
// whose next ring belongs to a uniformly random ball, so the direct engine
// advances time by Exp(m) per activation and reads the activated ball's
// bin off a BallList: an explicit ball→bin table (O(m) memory, O(1) per
// activation, move and churn). Sampling a uniform ball and reading its bin
// is exactly the definition of the process. The ball list is also what
// churns (AddBall/RemoveBall) and persists (EncodeState/DecodeState).
//
// NewJumpEngine (jump.go) is the rejection-free alternative: it needs no
// ball list because it simulates only the embedded jump chain of
// productive moves, with null-activation blocks skipped geometrically
// (experiment A4 cross-validates the two modes).
package sim

import (
	"repro/internal/loadvec"
	"repro/internal/rng"
)

// BallList is the direct engine's activation sampler: an indexed
// multiset of balls. Every operation — sampling, moves, and churn — is
// O(1): ball ids are kept dense by swap-deleting the departing ball with
// the highest id, and pos tracks each ball's slot within its bin list so
// the relabelling needs no scan.
type BallList struct {
	ballBin []int32   // ball id -> bin
	pos     []int32   // ball id -> index within bins[ballBin[id]]
	bins    [][]int32 // bin -> ball ids (unordered)
}

// NewBallList returns an empty ball list; call Reset before use.
func NewBallList() *BallList { return &BallList{} }

// Reset fills the list from a load vector, numbering balls bin by bin.
func (b *BallList) Reset(v loadvec.Vector) {
	m := v.Balls()
	b.ballBin = make([]int32, 0, m)
	b.pos = make([]int32, 0, m)
	b.bins = make([][]int32, len(v))
	id := int32(0)
	for bin, load := range v {
		lst := make([]int32, 0, load)
		for j := 0; j < load; j++ {
			b.ballBin = append(b.ballBin, int32(bin))
			b.pos = append(b.pos, int32(j))
			lst = append(lst, id)
			id++
		}
		b.bins[bin] = lst
	}
}

// Sample returns the bin of a uniformly random ball.
func (b *BallList) Sample(r *rng.RNG) int {
	return int(b.ballBin[r.Intn(len(b.ballBin))])
}

// MoveBall records that one ball moved from bin src to bin dst. Balls
// being identical, it moves an arbitrary resident of src in O(1) (the
// last one in src's list).
func (b *BallList) MoveBall(src, dst int) {
	lst := b.bins[src]
	if len(lst) == 0 {
		panic("sim: MoveBall from empty bin")
	}
	ball := lst[len(lst)-1]
	b.bins[src] = lst[:len(lst)-1]
	b.pos[ball] = int32(len(b.bins[dst]))
	b.bins[dst] = append(b.bins[dst], ball)
	b.ballBin[ball] = int32(dst)
}

// AddBall records a new ball arriving in bin (dynamic churn): it takes
// the next dense id, in O(1).
func (b *BallList) AddBall(bin int) {
	id := int32(len(b.ballBin))
	b.ballBin = append(b.ballBin, int32(bin))
	b.pos = append(b.pos, int32(len(b.bins[bin])))
	b.bins[bin] = append(b.bins[bin], id)
}

// RemoveBall records a ball departing from bin (dynamic churn): an
// arbitrary resident leaves in O(1), and it panics if the bin is empty.
// The highest ball id is relabelled into the departing slot so ids stay
// dense and Sample remains a single array index.
func (b *BallList) RemoveBall(bin int) {
	lst := b.bins[bin]
	if len(lst) == 0 {
		panic("sim: RemoveBall from empty bin")
	}
	gone := lst[len(lst)-1]
	b.bins[bin] = lst[:len(lst)-1]
	last := int32(len(b.ballBin) - 1)
	if gone != last {
		b.ballBin[gone] = b.ballBin[last]
		b.pos[gone] = b.pos[last]
		b.bins[b.ballBin[last]][b.pos[last]] = gone
	}
	b.ballBin = b.ballBin[:last]
	b.pos = b.pos[:last]
}

// Bin returns the bin of ball id — the read half of Sample, exposed so the
// sharded epoch loop can batch its uniform ball-id draws into a flat array
// (rng.FillIntn) and resolve each id against the live table at event time.
func (b *BallList) Bin(id int) int { return int(b.ballBin[id]) }

// Load returns the number of balls the sampler believes are in bin i
// (used by tests to check consistency with the Config).
func (b *BallList) Load(i int) int { return len(b.bins[i]) }
