// Package opensys implements the *open-system* variant of RLS studied by
// Ganesh, Lilienthal, Manjunath, Proutiere and Simatos [11] ("Load
// balancing via random local search in closed and open systems"), the
// paper this reproduction's headline result improves upon in the closed
// setting. In the open system:
//
//   - jobs (balls) arrive as a Poisson process of rate λ·n and join a
//     uniformly random server (bin);
//   - each server completes one job at rate μ while non-empty (n M/M/1
//     queues; stability requires ρ = λ/μ < 1);
//   - while waiting, each job carries an RLS migration clock of rate β:
//     on a ring it samples a uniform server and migrates iff the
//     destination queue is strictly shorter (the §3 rule).
//
// With β = 0 the system is n independent M/M/1 queues whose maximum
// stationary queue grows like log_{1/ρ} n; with β > 0 RLS migration
// keeps the configuration near-balanced. Experiment O1 measures exactly
// that contrast.
package opensys

import (
	"fmt"
	"math"

	"repro/internal/fenwick"
	"repro/internal/rng"
)

// Params configures an open system.
type Params struct {
	// N is the number of servers.
	N int
	// Lambda is the per-server arrival rate (system arrival rate λ·N).
	Lambda float64
	// Mu is the per-server service rate.
	Mu float64
	// Beta is the per-job RLS migration clock rate (0 disables
	// migration; 1 matches the paper's rate-1 clocks).
	Beta float64
}

// Validate checks parameter sanity including stability.
func (p Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("opensys: need at least 2 servers")
	}
	if p.Lambda <= 0 || p.Mu <= 0 {
		return fmt.Errorf("opensys: rates must be positive")
	}
	if p.Beta < 0 {
		return fmt.Errorf("opensys: negative migration rate")
	}
	if p.Lambda >= p.Mu {
		return fmt.Errorf("opensys: unstable system (λ=%g ≥ μ=%g)", p.Lambda, p.Mu)
	}
	return nil
}

// System is a running open system. It maintains queue lengths, a prefix-sum
// tree for load-proportional migration sampling, a dynamic set of busy
// servers for service sampling, and a load histogram with min/max for
// O(1) discrepancy tracking — all under arrivals, departures and
// migrations (each a ±1 change).
type System struct {
	p     Params
	r     *rng.RNG
	loads []int
	jobs  int // total jobs in system

	tree *fenwick.Tree // over loads

	busy    []int // list of non-empty servers
	busyPos []int // server -> index in busy, or -1

	count    []int // histogram: count[v] = #servers with queue length v
	min, max int

	time float64
	// Event counters.
	Arrivals, Departures, Migrations, FailedMigrations int64
}

// New creates an empty open system.
func New(p Params, r *rng.RNG) (*System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		p:       p,
		r:       r,
		loads:   make([]int, p.N),
		tree:    fenwick.New(p.N),
		busyPos: make([]int, p.N),
		count:   make([]int, 4),
	}
	for i := range s.busyPos {
		s.busyPos[i] = -1
	}
	s.count[0] = p.N
	return s, nil
}

// Jobs returns the number of jobs currently in the system.
func (s *System) Jobs() int { return s.jobs }

// Loads returns a copy of the queue-length vector.
func (s *System) Loads() []int { return append([]int(nil), s.loads...) }

// Disc returns the discrepancy max_i |ℓ_i − jobs/n|.
func (s *System) Disc() float64 {
	avg := float64(s.jobs) / float64(s.p.N)
	return math.Max(float64(s.max)-avg, avg-float64(s.min))
}

// adjust moves server v's queue by ±1 and maintains every structure.
func (s *System) adjust(server, delta int) {
	v := s.loads[server]
	w := v + delta
	if w < 0 {
		panic("opensys: negative queue")
	}
	s.loads[server] = w
	s.tree.Add(server, int64(delta))
	s.jobs += delta
	// Busy set.
	if v == 0 && w > 0 {
		s.busyPos[server] = len(s.busy)
		s.busy = append(s.busy, server)
	} else if v > 0 && w == 0 {
		idx := s.busyPos[server]
		last := s.busy[len(s.busy)-1]
		s.busy[idx] = last
		s.busyPos[last] = idx
		s.busy = s.busy[:len(s.busy)-1]
		s.busyPos[server] = -1
	}
	// Histogram.
	for w+1 >= len(s.count) {
		s.count = append(s.count, 0)
	}
	s.count[v]--
	s.count[w]++
	// Min/max: queue lengths move by ±1, so each extreme moves by at
	// most one step, except that emptying/filling can strand them; walk
	// them back to the nearest occupied level (amortized O(1)).
	if w < s.min {
		s.min = w
	}
	if w > s.max {
		s.max = w
	}
	for s.count[s.min] == 0 {
		s.min++
	}
	for s.max > 0 && s.count[s.max] == 0 {
		s.max--
	}
}

// Step advances to the next event (arrival, service completion, or
// migration attempt) and processes it.
func (s *System) Step() {
	arrRate := s.p.Lambda * float64(s.p.N)
	svcRate := s.p.Mu * float64(len(s.busy))
	migRate := s.p.Beta * float64(s.jobs)
	total := arrRate + svcRate + migRate
	s.time += s.r.Exp(total)
	u := s.r.Float64() * total
	switch {
	case u < arrRate:
		s.adjust(s.r.Intn(s.p.N), +1)
		s.Arrivals++
	case u < arrRate+svcRate:
		server := s.busy[s.r.Intn(len(s.busy))]
		s.adjust(server, -1)
		s.Departures++
	default:
		src, _ := s.tree.Find(int64(s.r.Intn(s.jobs))) // a uniform job's server
		dst := s.r.Intn(s.p.N)
		if dst != src && s.loads[src] >= s.loads[dst]+1 {
			s.adjust(src, -1)
			s.adjust(dst, +1)
			s.Migrations++
		} else {
			s.FailedMigrations++
		}
	}
}

// Stats are time-averaged observables over an observation window.
type Stats struct {
	// MeanJobs is the time-averaged number of jobs in the system
	// (Little's law predicts N·ρ/(1−ρ) for β=0).
	MeanJobs float64
	// MeanMax is the time-averaged maximum queue length.
	MeanMax float64
	// MeanDisc is the time-averaged discrepancy.
	MeanDisc float64
	// FracPerfect is the fraction of time the configuration was
	// perfectly balanced (max−min ≤ 1).
	FracPerfect float64
	// Window is the observation duration.
	Window float64
}

// Run advances the system for `warmup` time units, then observes for
// `window` time units and returns time-averaged statistics.
func (s *System) Run(warmup, window float64) Stats {
	for s.time < warmup {
		s.Step()
	}
	start := s.time
	var st Stats
	prev := s.time
	for s.time < start+window {
		dt := 0.0
		// Observables are piecewise constant between events; weight the
		// *pre-event* state by the inter-event gap.
		jobs := float64(s.jobs)
		maxQ := float64(s.max)
		disc := s.Disc()
		perfect := s.max-s.min <= 1
		s.Step()
		dt = s.time - prev
		prev = s.time
		st.MeanJobs += jobs * dt
		st.MeanMax += maxQ * dt
		st.MeanDisc += disc * dt
		if perfect {
			st.FracPerfect += dt
		}
	}
	st.Window = s.time - start
	if st.Window > 0 {
		st.MeanJobs /= st.Window
		st.MeanMax /= st.Window
		st.MeanDisc /= st.Window
		st.FracPerfect /= st.Window
	}
	return st
}

// MM1MeanJobs returns the M/M/1 stationary mean number of jobs per
// server, ρ/(1−ρ) — the β = 0 prediction per server by independence.
func MM1MeanJobs(rho float64) float64 { return rho / (1 - rho) }

// MM1MaxQueueScale returns log_{1/ρ}(n), the leading-order stationary
// maximum queue length across n independent M/M/1 queues (the β = 0
// baseline the migration experiment contrasts against).
func MM1MaxQueueScale(n int, rho float64) float64 {
	return math.Log(float64(n)) / math.Log(1/rho)
}
