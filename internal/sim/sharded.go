package sim

import (
	"sync"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// Sharded is the goroutine-parallel engine for plain RLS on the complete
// topology, built for the dense regime (m ≫ n, many productive moves)
// where the direct engine's per-activation work dominates and the jump
// engine has nothing to skip.
//
// The n bins are partitioned into P contiguous ranges — shard i owns
// [cuts[i], cuts[i+1]), initially the near-equal PartitionRange boundaries
// and re-balanced at epoch barriers (see "Repartitioning" below). Each
// shard owns its range as its own loadvec.Config plus BallList sampler and
// draws from its own deterministic RNG stream (split from the root seed),
// so a fixed (seed, P) pair reproduces the run exactly regardless of
// scheduling. The m rate-1 ball clocks superpose into independent
// per-shard Poisson streams of rate m_s, so shards simulate disjoint
// slices of the same continuous-time process with no shared state:
//
//   - epochs: time is cut into epochs of length dt. Within an epoch every
//     shard draws its activation count K ~ Poisson(m_s·dt) in one block —
//     the count of a rate-m_s Poisson stream over the window, with the
//     per-activation Exp gaps integrated out — and runs the K activations
//     locally with batched uniform draws (rng.FillIntn into flat scratch
//     arrays, the dense-phase analogue of the jump engine's geometric
//     block draws). A move whose sampled destination lands in the same
//     shard is decided and applied immediately, exactly as in the direct
//     engine;
//   - cross-shard moves: a destination owned by another shard cannot be
//     read mid-epoch without a race, so the activation becomes a
//     *proposal* appended to the shard's private outbox slice,
//     pre-filtered against a stale (last-reconciliation) snapshot of the
//     global loads. Outboxes are drained at the epoch barrier in three
//     deterministic parallel phases: sources re-validate against their
//     live loads and detach the ball, destinations re-check the RLS rule
//     against their live loads and land or refuse it, and refused balls
//     are restored at their source — every applied move satisfies
//     ℓ_src ≥ ℓ_dst + 1 at application time, so the §3 monotonicity of
//     min/max/disc is preserved;
//   - reconciliation: at each barrier the per-shard histograms are folded
//     into a global loadvec.FoldedStats snapshot (min/max/m in O(P)) that
//     serves the stop conditions — MaxLoad, Discrepancy and the rls.Target
//     kinds — and the stale load snapshot used by the proposal filter is
//     refreshed.
//
// Epoch workers are a persistent pool: Run spawns one goroutine per shard
// and dispatches each epoch and barrier phase as a small message over a
// per-shard channel, so the steady-state epoch loop performs no
// allocations at all — no goroutine spawns, no closure captures, no
// channel-of-proposals resizing — which the allocation benchmarks assert.
//
// Granularity: with P > 1 stop conditions, traces, and the activation
// budget are checked at epoch barriers only, so runs may overshoot a
// target by up to one epoch — the sharded analogue of the jump engine's
// per-move blocks. With P = 1 there is no concurrency to protect: the
// single shard executes the direct engine's exact per-activation loop on
// the root RNG stream (same draws, same stop granularity), making the
// fixed-seed output byte-identical to NewEngine's — the equivalence tests
// pin this.
//
// Churn (AddBall/RemoveBall) maps the bin to its owning shard in
// O(log P) and updates that shard's Config and sampler in place, so the
// Session churn path stays O(1)-ish per event as in the other engine
// modes.
//
// # Repartitioning (repartition.go)
//
// A static contiguous partition load-imbalances as mass drains toward few
// bins: the shard owning the hot range does nearly all the work while its
// peers spin on empty epochs. At epoch barriers the engine therefore
// re-balances the range boundaries work-stealing-style: when the per-shard
// ball masses m_s report one shard carrying more than 1.5x its fair share,
// new cuts are computed from per-bin weights (loadvec.BalancedCuts) and
// the boundary bins migrate — the affected shards' Configs and samplers
// are rebuilt over their new ranges. Every decision is
// a pure function of the folded barrier state, taken single-threaded
// between epochs, so fixed (seed, P) still reproduces the run exactly;
// P = 1 never repartitions, keeping the byte-identical equivalence.
// Declined checks (the imbalance is intrinsic, e.g. one overloaded bin)
// back off exponentially so barriers are not taxed with O(n) scans.
//
// # When to use it
//
// Sharded is the dense-regime tool: it wins only where the direct
// engine's per-activation work dominates (m ≫ n, most activations
// productive) and enough cores run the shards. In the end-game nearly
// every activation is a null move and the sequential jump engine, which
// skips them, is the engine to beat.
//
// Epoch length trades fidelity for barrier cost. Cross-shard moves are
// decided against loads up to one epoch stale and land only at barriers,
// so with P > 1 the process only approximates the sequential one.
// Experiment A5 KS-gates the balancing-time law at fine epochs
// (dt = P/m). The auto epoch is sized for throughput, not fidelity: when
// it is not small against the balancing time (small m), cross-shard flow
// throttles to what survives each barrier and the law drifts far — A5's
// auto row balances in ~75 time units where the sequential process takes
// ~6.
type Sharded struct {
	n, p   int
	epoch0 float64 // configured epoch length (0 = auto-sized per Run)
	dt     float64 // epoch length for the current Run

	// cuts are the live partition boundaries: shard i owns global bins
	// [cuts[i], cuts[i+1]). Initially loadvec.Cuts(n, p); repartitioning
	// moves them at barriers (repartition.go).
	cuts   []int
	shards []*shard
	cfgs   []*loadvec.Config // shard Configs (refold scratch; repartition swaps entries)
	root   *rng.RNG
	stale  []int // global loads as of the last reconciliation (filter only)

	// Persistent worker pool (P > 1, spawned once per Run): each epoch and
	// barrier phase is dispatched as a phase id over per-shard channels —
	// no per-phase goroutines, no closures, zero steady-state allocations.
	work     []chan uint8
	phaseWG  sync.WaitGroup // one phase's completion
	poolWG   sync.WaitGroup // pool teardown
	epochEnd float64        // the running epoch's horizon (set before dispatch)

	// Repartition policy state (repartition.go).
	repartEnabled bool
	repartWait    int // barriers until the next O(n) repartition scan is allowed
	repartBackoff int // current decline backoff, doubling up to repartBackoffMax
	repartitions  int64
	binWeights    []int64 // scratch: per-bin ball weights for cut placement

	// Folded global view (refreshed at each barrier and churn event).
	stats loadvec.FoldedStats
	time  float64
	acts  int64
	moves int64

	crossProposed int64
	crossApplied  int64

	// PostCheck, if non-nil, runs at every point where the global state is
	// refreshed and stop conditions are evaluated: each epoch barrier, or
	// each activation when P = 1. Phase tracking hooks in here.
	PostCheck func(*Sharded)
}

// shard is one worker's private slice of the system: the bins [lo, hi),
// their Config and sampler, a deterministic RNG stream, a local clock,
// and the outbox slice for cross-shard move proposals.
type shard struct {
	id     int
	lo, hi int
	cfg    *loadvec.Config
	smp    *BallList
	r      *rng.RNG

	t        float64
	acts     int64
	moves    int64 // intra-shard protocol moves
	proposed int64
	landed   int64 // cross-shard moves applied at this shard (cumulative)

	// out is the epoch's cross-shard proposal outbox. Only the owning
	// shard appends during an epoch and only it drains at the barrier
	// (detach phase), so a plain slice — reset to [:0], grown once —
	// replaces the bounded channel the engine used to pay a send/recv
	// plus periodic reallocation for.
	out []proposal

	// Batched-draw scratch (P > 1): per-chunk uniform ball ids and
	// destination bins, filled by rng.FillIntn.
	idxBuf, dstBuf []int32

	// Barrier scratch, indexed by peer shard id. inbox[s] is written by
	// shard s in the detach phase and read by this shard in the land
	// phase; reject[s] is written by this shard in the land phase and
	// read by shard s in the restore phase — each slot has exactly one
	// owner per phase, with the phase barriers ordering the handover.
	inbox  [][]handoff
	reject [][]int32
}

// proposal is a cross-shard move candidate: global source and destination
// bins, queued by the source shard during an epoch.
type proposal struct{ src, dst int32 }

// handoff is a proposal whose source side has been applied: the ball left
// srcGlobal (whose load was srcLoad at detachment) and asks to land at the
// destination shard's local bin dstLocal.
type handoff struct {
	srcGlobal, dstLocal, srcLoad int32
}

// ShardedStop is a stop condition over the sharded engine's folded global
// state, evaluated at epoch barriers (every activation when P = 1).
type ShardedStop func(*Sharded) bool

// ShardedUntilPerfect stops at global perfect balance (disc < 1).
func ShardedUntilPerfect() ShardedStop {
	return func(s *Sharded) bool { return s.IsPerfect() }
}

// ShardedUntilBalanced stops once the global configuration is x-balanced.
func ShardedUntilBalanced(x float64) ShardedStop {
	return func(s *Sharded) bool { return s.Disc() <= x }
}

// ShardedUntilTime stops once continuous time reaches t.
func ShardedUntilTime(t float64) ShardedStop {
	return func(s *Sharded) bool { return s.Time() >= t }
}

// DefaultShards is the shard count used when a caller passes 0: a small
// constant rather than GOMAXPROCS so that fixed-seed runs reproduce across
// machines.
const DefaultShards = 4

// shardedActsPerEpoch sizes auto epochs: dt is chosen so each shard
// expects about this many activations between barriers — fine enough to
// track the process closely, coarse enough to amortize the barrier.
const shardedActsPerEpoch = 256

// shardBatch is the chunk size of the plain shard epoch's batched uniform
// draws: large enough to amortize the per-call RNG state round-trip, small
// enough to stay in L1.
const shardBatch = 512

// NewSharded builds a sharded engine over a copy of the initial
// configuration with the given shard count (0 means DefaultShards) and
// epoch length (0 means auto: sized per Run so each shard expects
// shardedActsPerEpoch activations per epoch). The root RNG seeds the
// per-shard streams via deterministic splitting; with shards == 1 the
// root stream is used directly so the run is byte-identical to the direct
// engine's. It panics on a nil RNG or a shard count above the bin count.
func NewSharded(initial loadvec.Vector, shards int, epoch float64, root *rng.RNG) *Sharded {
	if root == nil {
		panic("sim: NewSharded with nil RNG")
	}
	if shards == 0 {
		shards = DefaultShards
	}
	if shards > len(initial) {
		shards = len(initial)
	}
	if shards < 1 || epoch < 0 {
		panic("sim: NewSharded with invalid shards or epoch")
	}
	n := len(initial)
	s := &Sharded{
		n:             n,
		p:             shards,
		epoch0:        epoch,
		root:          root,
		cuts:          loadvec.Cuts(n, shards),
		stale:         append([]int(nil), initial...),
		repartEnabled: true,
		repartBackoff: repartCheckBase,
	}
	parts := loadvec.Partition(initial, shards)
	s.cfgs = make([]*loadvec.Config, shards)
	s.shards = make([]*shard, shards)
	for i, part := range parts {
		r := root
		if shards > 1 {
			r = root.Split()
		}
		sh := &shard{
			id: i, lo: s.cuts[i], hi: s.cuts[i+1],
			cfg:    loadvec.NewConfig(part),
			r:      r,
			inbox:  make([][]handoff, shards),
			reject: make([][]int32, shards),
			smp:    NewBallList(),
		}
		sh.smp.Reset(part)
		if shards > 1 {
			sh.idxBuf = make([]int32, shardBatch)
			sh.dstBuf = make([]int32, shardBatch)
		}
		s.cfgs[i] = sh.cfg
		s.shards[i] = sh
	}
	s.stats = loadvec.FoldStats(s.cfgs...)
	return s
}

// N returns the number of bins.
func (s *Sharded) N() int { return s.n }

// Shards returns the shard count P.
func (s *Sharded) Shards() int { return s.p }

// Stats returns the folded global view: live with P = 1, as of the last
// barrier otherwise.
func (s *Sharded) Stats() loadvec.FoldedStats {
	if s.p == 1 {
		c := s.shards[0].cfg
		return loadvec.FoldedStats{N: s.n, M: c.M(), Min: c.Min(), Max: c.Max()}
	}
	return s.stats
}

// M returns the global ball count.
func (s *Sharded) M() int { return s.Stats().M }

// Min returns the global minimum load.
func (s *Sharded) Min() int { return s.Stats().Min }

// Max returns the global maximum load.
func (s *Sharded) Max() int { return s.Stats().Max }

// Disc returns the global discrepancy.
func (s *Sharded) Disc() float64 { return s.Stats().Disc() }

// IsPerfect reports global perfect balance (disc < 1).
func (s *Sharded) IsPerfect() bool { return s.Stats().IsPerfect() }

// Time returns the elapsed continuous time (the furthest shard clock).
func (s *Sharded) Time() float64 {
	if s.p == 1 {
		return s.shards[0].t
	}
	return s.time
}

// Activations returns the total ball activations across all shards.
func (s *Sharded) Activations() int64 {
	if s.p == 1 {
		return s.shards[0].acts
	}
	return s.acts
}

// Moves returns the total protocol moves (intra-shard plus applied
// cross-shard).
func (s *Sharded) Moves() int64 {
	if s.p == 1 {
		return s.shards[0].moves
	}
	return s.moves
}

// CrossProposed returns how many cross-shard move proposals were queued.
func (s *Sharded) CrossProposed() int64 {
	if s.p == 1 {
		return 0
	}
	return s.crossProposed
}

// CrossApplied returns how many cross-shard moves were applied at
// barriers.
func (s *Sharded) CrossApplied() int64 { return s.crossApplied }

// ShardRange returns the global bin range [lo, hi) owned by shard i under
// the live partition (repartitioning moves the boundaries at barriers).
func (s *Sharded) ShardRange(i int) (lo, hi int) {
	return s.cuts[i], s.cuts[i+1]
}

// Cuts returns a copy of the live partition boundary vector: shard i owns
// [Cuts()[i], Cuts()[i+1]).
func (s *Sharded) Cuts() []int { return append([]int(nil), s.cuts...) }

// owner returns the shard owning a global bin in O(log P).
func (s *Sharded) owner(bin int) int { return loadvec.CutsOwner(s.cuts, bin) }

// Load returns the live load of a global bin in O(log P) via the owning
// shard (always current: shard state only changes inside Run).
func (s *Sharded) Load(bin int) int {
	sh := s.shards[s.owner(bin)]
	return sh.cfg.Load(bin - sh.lo)
}

// Snapshot returns a copy of the global load vector (shard ranges
// concatenated in bin order).
func (s *Sharded) Snapshot() loadvec.Vector {
	v := make(loadvec.Vector, 0, s.n)
	for _, sh := range s.shards {
		v = append(v, sh.cfg.Loads()...)
	}
	return v
}

// GlobalConfig folds the shard states into a fresh global Config — the
// full-histogram reconciliation. Stop conditions only need the O(P)
// FoldedStats, so this O(n) fold is for callers that want every tracked
// statistic (tests, reporting).
func (s *Sharded) GlobalConfig() *loadvec.Config {
	return loadvec.NewConfig(s.Snapshot())
}

// AddBall inserts one ball into the given global bin (dynamic arrival),
// updating the owning shard's Config and sampler in place — O(1) plus the
// O(P) stats refold, never a rebuild.
func (s *Sharded) AddBall(bin int) {
	sh := s.shards[s.owner(bin)]
	sh.cfg.AddBall(bin - sh.lo)
	sh.smp.AddBall(bin - sh.lo)
	s.stale[bin]++
	s.refold()
}

// RemoveBall removes one ball from the given global bin (dynamic
// departure). It panics if the bin is empty.
func (s *Sharded) RemoveBall(bin int) {
	sh := s.shards[s.owner(bin)]
	sh.cfg.RemoveBall(bin - sh.lo)
	sh.smp.RemoveBall(bin - sh.lo)
	if s.stale[bin] > 0 {
		s.stale[bin]--
	}
	s.refold()
}

// RandomBin returns the bin of a uniformly random ball without advancing
// the run: shards are sampled proportionally to their ball mass, then a
// uniform resident ball within the shard. Draws come from the root
// stream; with P = 1 the single draw matches the direct engine's.
func (s *Sharded) RandomBin() int {
	if s.p == 1 {
		return s.shards[0].smp.Sample(s.root)
	}
	k := s.root.Int63n(int64(s.Stats().M))
	for _, sh := range s.shards {
		if m := int64(sh.cfg.M()); k < m {
			return sh.lo + sh.smp.Sample(s.root)
		} else {
			k -= m
		}
	}
	panic("sim: RandomBin fold out of range")
}

// refold refreshes the folded global stats from the shard Configs (O(P),
// allocation-free: the cfgs slice is reused; repartitioning swaps entries
// in place).
func (s *Sharded) refold() {
	s.stats = loadvec.FoldStats(s.cfgs...)
}

// Run advances the engine until stop returns true or maxActivations is
// exhausted (pass maxActivations <= 0 for DefaultActivationBudget). With
// P > 1 both are checked at epoch barriers, so the run may overshoot by
// up to one epoch.
func (s *Sharded) Run(stop ShardedStop, maxActivations int64) Result {
	res, _ := s.run(stop, maxActivations, 0, false)
	return res
}

// RunTraced behaves like Run but also samples the trajectory every
// `every` activations, at barrier granularity for P > 1 (a point is
// recorded at the first barrier on or past each boundary) and at
// activation granularity for P = 1 — mirroring Engine.RunTraced.
func (s *Sharded) RunTraced(stop ShardedStop, maxActivations, every int64) (Result, []TracePoint) {
	if every <= 0 {
		every = 1
	}
	return s.run(stop, maxActivations, every, true)
}

func (s *Sharded) run(stop ShardedStop, maxActivations, every int64, traced bool) (Result, []TracePoint) {
	if maxActivations <= 0 {
		maxActivations = DefaultActivationBudget
	}
	s.sizeEpoch()
	if s.p > 1 {
		s.startWorkers()
		defer s.stopWorkers()
	}

	var trace []TracePoint
	var nextRecord int64
	record := func() {
		st := s.Stats()
		trace = append(trace, TracePoint{
			Time:        s.Time(),
			Activations: s.Activations(),
			Disc:        st.Disc(),
			MinLoad:     st.Min,
			MaxLoad:     st.Max,
		})
	}
	check := func() bool {
		if traced && s.Activations() >= nextRecord {
			record()
			nextRecord = (s.Activations()/every + 1) * every
		}
		if s.PostCheck != nil {
			s.PostCheck(s)
		}
		return stop(s)
	}
	if traced {
		record()
		nextRecord = s.Activations() + every
	}

	stopped := stop(s)
	for !stopped && s.Activations() < maxActivations {
		if s.p == 1 {
			stopped = s.runEpochSingle(maxActivations, check)
		} else {
			s.runEpochParallel()
			stopped = check()
		}
	}
	if traced && trace[len(trace)-1].Activations != s.Activations() {
		record()
	}
	return Result{
		Time:        s.Time(),
		Activations: s.Activations(),
		Moves:       s.Moves(),
		Stopped:     stopped,
		Final:       s.Snapshot(),
	}, trace
}

// sizeEpoch resolves the epoch length for this Run (auto mode reads the
// live ball count).
func (s *Sharded) sizeEpoch() {
	s.dt = s.epoch0
	if s.dt <= 0 {
		m := s.Stats().M
		if m < 1 {
			m = 1
		}
		s.dt = float64(shardedActsPerEpoch) * float64(s.p) / float64(m)
	}
}

// runEpochSingle is the P = 1 degenerate path: the direct engine's exact
// per-activation loop (same RNG draws from the root stream, stop checked
// after every activation) bounded by one epoch of simulated time.
func (s *Sharded) runEpochSingle(maxActivations int64, check func() bool) bool {
	sh := s.shards[0]
	m := sh.cfg.M()
	if m == 0 {
		sh.t += s.dt
		return check()
	}
	fm := float64(m)
	end := sh.t + s.dt
	for sh.t < end && sh.acts < maxActivations {
		sh.t += sh.r.Exp(fm)
		sh.acts++
		src := sh.smp.Sample(sh.r)
		dst := sh.r.Intn(s.n)
		if dst != src && sh.cfg.Load(src) >= sh.cfg.Load(dst)+1 {
			sh.cfg.Move(src, dst)
			sh.smp.MoveBall(src, dst)
			sh.moves++
		}
		if check() {
			return true
		}
	}
	return false
}

// Worker-pool phase ids: one epoch phase plus the three barrier phases,
// dispatched over per-shard channels to the persistent workers.
const (
	phaseEpoch uint8 = iota
	phaseDetach
	phaseLand
	phaseRestore
)

// runPhase executes one phase for one shard (on a pool worker, or on the
// coordinator when P = 1).
func (s *Sharded) runPhase(ph uint8, sh *shard) {
	switch ph {
	case phaseEpoch:
		s.runShardEpoch(sh, s.epochEnd)
	case phaseDetach:
		s.detachPhase(sh)
	case phaseLand:
		s.landPhase(sh)
	case phaseRestore:
		s.restorePhase(sh)
	}
}

// runPhases runs one phase across all shards, concurrently via the worker
// pool for P > 1 (inline on the coordinator when no pool is running).
// Coordinator writes made before the dispatch are visible to the workers
// through the channel sends, and worker writes are visible to the
// coordinator through the WaitGroup — the only synchronization the epoch
// loop performs, none of which allocates.
func (s *Sharded) runPhases(ph uint8) {
	if s.work == nil {
		for _, sh := range s.shards {
			s.runPhase(ph, sh)
		}
		return
	}
	s.phaseWG.Add(s.p)
	for _, w := range s.work {
		w <- ph
	}
	s.phaseWG.Wait()
}

// startWorkers spawns the persistent worker pool: one goroutine per shard
// for the duration of the Run, each draining phase ids from its own
// channel. Spawning once per Run instead of 4P goroutines per epoch is
// what makes the steady-state epoch loop allocation-free.
func (s *Sharded) startWorkers() {
	s.work = make([]chan uint8, s.p)
	for i, sh := range s.shards {
		ch := make(chan uint8, 1)
		s.work[i] = ch
		s.poolWG.Add(1)
		go func(sh *shard, ch chan uint8) {
			defer s.poolWG.Done()
			for ph := range ch {
				s.runPhase(ph, sh)
				s.phaseWG.Done()
			}
		}(sh, ch)
	}
}

// stopWorkers tears the pool down at the end of a Run, so an abandoned
// engine leaks no goroutines.
func (s *Sharded) stopWorkers() {
	for _, ch := range s.work {
		close(ch)
	}
	s.poolWG.Wait()
	s.work = nil
}

// runEpochParallel runs one epoch concurrently across the shards and
// drains the cross-shard outboxes at the barrier.
func (s *Sharded) runEpochParallel() {
	s.epochEnd = s.time + s.dt
	s.runPhases(phaseEpoch)
	s.barrier()
}

// runShardEpoch advances one shard to the epoch horizon in one
// batched block. The shard's activation count over the window is
// K ~ Poisson(m_s·dt) — the count of its rate-m_s Poisson stream with the
// Exp gaps integrated out, the same law the per-gap loop simulated — and
// the K activations draw their uniform ball ids and destination bins in
// flat chunks (rng.FillIntn into per-shard scratch), resolved against the
// live ball table at event time. Local moves apply immediately;
// cross-shard candidates that pass the stale-load filter append to the
// outbox slice for the barrier. Nothing here allocates in steady state:
// the scratch arrays are fixed and the outbox is reset to [:0] each
// barrier.
func (s *Sharded) runShardEpoch(sh *shard, end float64) {
	m := sh.cfg.M()
	if m == 0 {
		sh.t = end
		return
	}
	k := sh.r.Poisson(float64(m) * (end - sh.t))
	sh.t = end
	sh.acts += k
	for k > 0 {
		b := shardBatch
		if int64(b) > k {
			b = int(k)
		}
		k -= int64(b)
		ids, dsts := sh.idxBuf[:b], sh.dstBuf[:b]
		sh.r.FillIntn(m, ids)
		sh.r.FillIntn(s.n, dsts)
		for j := 0; j < b; j++ {
			src := sh.smp.Bin(int(ids[j]))
			dst := int(dsts[j])
			if dst >= sh.lo && dst < sh.hi {
				l := dst - sh.lo
				if l != src && sh.cfg.Load(src) >= sh.cfg.Load(l)+1 {
					sh.cfg.Move(src, l)
					sh.smp.MoveBall(src, l)
					sh.moves++
				}
			} else if sh.cfg.Load(src) >= s.stale[dst]+1 {
				sh.out = append(sh.out, proposal{int32(sh.lo + src), int32(dst)})
				sh.proposed++
			}
		}
	}
}

// detachPhase is the barrier's source side: drain the shard's own outbox
// in send order, re-validate against the live source load (it may have
// changed since the proposal) and the stale destination filter, detach
// the ball and hand it to the destination shard's inbox slot.
func (s *Sharded) detachPhase(sh *shard) {
	for _, p := range sh.out {
		src := int(p.src) - sh.lo
		ld := sh.cfg.Load(src)
		if ld >= 1 && ld >= s.stale[p.dst]+1 {
			sh.cfg.RemoveBall(src)
			sh.smp.RemoveBall(src)
			dst := s.shards[s.owner(int(p.dst))]
			dst.inbox[sh.id] = append(dst.inbox[sh.id],
				handoff{p.src, p.dst - int32(dst.lo), int32(ld)})
		}
	}
	sh.out = sh.out[:0]
}

// landPhase is the barrier's destination side: walk inboxes in
// source-shard order and re-check the RLS rule against the live
// destination load, so every landed move satisfies ℓ_src ≥ ℓ_dst + 1 at
// application time and the §3 monotonicity of min/max/disc survives
// sharding.
func (s *Sharded) landPhase(sh *shard) {
	for from := 0; from < s.p; from++ {
		for _, h := range sh.inbox[from] {
			dst := int(h.dstLocal)
			if int(h.srcLoad) >= sh.cfg.Load(dst)+1 {
				sh.cfg.AddBall(dst)
				sh.smp.AddBall(dst)
				sh.landed++
			} else {
				sh.reject[from] = append(sh.reject[from], h.srcGlobal)
			}
		}
		sh.inbox[from] = sh.inbox[from][:0]
	}
}

// restorePhase restores refused balls at their source (no observable
// state ever saw them gone: all three phases are inside one barrier),
// then refreshes this shard's slice of the stale snapshot.
func (s *Sharded) restorePhase(sh *shard) {
	for _, peer := range s.shards {
		for _, g := range peer.reject[sh.id] {
			l := int(g) - sh.lo
			sh.cfg.AddBall(l)
			sh.smp.AddBall(l)
		}
		peer.reject[sh.id] = peer.reject[sh.id][:0]
	}
	copy(s.stale[sh.lo:sh.hi], sh.cfg.Loads())
}

// barrier drains the proposal outboxes in three deterministic parallel
// phases (each phase runs once per shard over disjoint state, with the
// phase barriers ordering the handovers), then reconciles the folded
// global stats and the stale snapshot, and lets the repartition policy
// re-balance the shard ranges.
func (s *Sharded) barrier() {
	s.runPhases(phaseDetach)
	s.runPhases(phaseLand)
	s.runPhases(phaseRestore)

	// Reconcile: fold counters and histogram extremes into the global view.
	var acts, moves, proposed, landed int64
	maxT := s.time
	for _, sh := range s.shards {
		acts += sh.acts
		moves += sh.moves
		proposed += sh.proposed
		landed += sh.landed
		if sh.t > maxT {
			maxT = sh.t
		}
	}
	s.acts = acts
	s.crossApplied = landed
	s.moves = moves + landed
	s.crossProposed = proposed
	s.time = maxT
	s.refold()
	s.maybeRepartition()
}

// Validate cross-checks every shard's tracked statistics and the folded
// global view; tests call it after randomized runs and churn.
func (s *Sharded) Validate() error {
	for _, sh := range s.shards {
		if err := sh.cfg.Validate(); err != nil {
			return err
		}
	}
	return nil
}
