package sim

import (
	"container/heap"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// EventHeap is the literal implementation of the §3 model: every ball
// owns an exponential rate-1 clock, and activations are delivered in the
// order the clocks actually ring, via a binary min-heap of (ball, next
// ring time) events. The superposition property says this is equivalent
// in law to the Exp(m)-gap + uniform-ball engine (samplers BallList and
// Fenwick); ablation A3 verifies the equivalence empirically.
//
// EventHeap also implements GapSampler: the engine takes its time
// increments from the heap instead of drawing Exp(m) gaps.
// It serves fixed-m runs (A3's literal-clock reference) and has no churn:
// an engine over it panics on AddBall/RemoveBall.
type EventHeap struct {
	ballBin []int32   // ball -> bin
	bins    [][]int32 // bin -> ball ids (unordered, for adversarial moves)
	events  eventQueue
	now     float64
	last    int32 // last activated ball
}

// GapSampler is implemented by ActivationSamplers that own the event
// timing themselves (the engine otherwise draws Exp(m) gaps).
type GapSampler interface {
	// NextGap returns the time from the previous activation to the next.
	NextGap(r *rng.RNG) float64
}

type event struct {
	time float64
	ball int32
}

type eventQueue []event

func (q eventQueue) Len() int            { return len(q) }
func (q eventQueue) Less(i, j int) bool  { return q[i].time < q[j].time }
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// NewEventHeap returns an empty event-heap sampler; call Reset before
// use.
func NewEventHeap() *EventHeap { return &EventHeap{} }

// Reset implements ActivationSampler. Each ball's first ring is drawn
// fresh from Exp(1), matching mutually independent rate-1 clocks started
// at time zero.
func (h *EventHeap) Reset(v loadvec.Vector) {
	m := v.Balls()
	h.ballBin = make([]int32, 0, m)
	h.bins = make([][]int32, len(v))
	h.events = make(eventQueue, 0, m)
	h.now = 0
	// Initial ring times need randomness, which Reset does not receive;
	// they are scheduled lazily by seed() on the first NextGap/Sample.
	id := int32(0)
	for bin, load := range v {
		lst := make([]int32, 0, load)
		for j := 0; j < load; j++ {
			h.ballBin = append(h.ballBin, int32(bin))
			lst = append(lst, id)
			id++
		}
		h.bins[bin] = lst
	}
}

// seed lazily schedules every ball's first ring at Exp(1) once an RNG is
// available (the first NextGap or Sample, at time zero).
func (h *EventHeap) seed(r *rng.RNG) {
	if len(h.events) > 0 || len(h.ballBin) == 0 {
		return
	}
	for ball := range h.ballBin {
		h.events = append(h.events, event{time: r.Exp(1), ball: int32(ball)})
	}
	heap.Init(&h.events)
}

// NextGap implements GapSampler: time until the earliest clock rings.
func (h *EventHeap) NextGap(r *rng.RNG) float64 {
	h.seed(r)
	gap := h.events[0].time - h.now
	if gap < 0 {
		gap = 0
	}
	return gap
}

// Sample implements ActivationSampler: pops the earliest ring, advances
// the sampler clock, reschedules that ball's next ring at +Exp(1), and
// returns the ball's bin.
func (h *EventHeap) Sample(r *rng.RNG) int {
	h.seed(r)
	e := h.events[0]
	h.now = e.time
	h.last = e.ball
	h.events[0].time = h.now + r.Exp(1)
	heap.Fix(&h.events, 0)
	return int(h.ballBin[e.ball])
}

// MoveBall implements ActivationSampler. The protocol's mover relocates
// the just-activated ball; adversarial ForceMove may relocate any ball in
// src, so if the last activated ball is not there, an arbitrary resident
// moves instead (balls are identical).
func (h *EventHeap) MoveBall(src, dst int) {
	ball := h.last
	if len(h.ballBin) == 0 {
		panic("sim: MoveBall before Reset")
	}
	if int(h.ballBin[ball]) != src {
		lst := h.bins[src]
		if len(lst) == 0 {
			panic("sim: MoveBall from empty bin")
		}
		ball = lst[len(lst)-1]
	}
	h.removeFromBin(ball, src)
	h.bins[dst] = append(h.bins[dst], ball)
	h.ballBin[ball] = int32(dst)
}

func (h *EventHeap) removeFromBin(ball int32, bin int) {
	lst := h.bins[bin]
	for i, id := range lst {
		if id == ball {
			lst[i] = lst[len(lst)-1]
			h.bins[bin] = lst[:len(lst)-1]
			return
		}
	}
	panic("sim: ball not found in its bin")
}

// Name implements ActivationSampler.
func (h *EventHeap) Name() string { return "event-heap" }

// Load returns the number of balls in bin i (for tests).
func (h *EventHeap) Load(i int) int { return len(h.bins[i]) }
