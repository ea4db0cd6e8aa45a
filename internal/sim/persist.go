package sim

import (
	"fmt"

	"repro/internal/fenwick"
	"repro/internal/loadvec"
	"repro/internal/persist"
	"repro/internal/rng"
)

// This file is sim's half of the snapshot codec: the three activation
// samplers, the sequential Engine (all four protocol shapes: direct,
// jump, strict jump, graph jump), and the Sharded engine with its stale
// snapshot and repartition policy state.
//
// DecodeState methods decode *into* an engine of the matching shape —
// the root package's ResumeSession rebuilds the shape from the snapshot
// header (mode, shards, strict, topology) and then overwrites the
// engine's state, so movers, topologies, and worker pools never need to
// be serialized. Everything whose order evolved under simulation
// (sampler slots, heap order, level lists, RNG words) ships verbatim;
// everything derivable (Fenwick trees, graph index, folded stats) is
// rebuilt through the same code paths the live engine uses.

// Sampler type tags, written ahead of the sampler payload so a decode
// into an engine of the wrong shape fails loudly instead of misreading.
const (
	samplerNone = iota
	samplerBallList
	samplerFenwick
	samplerEventHeap
)

// Graph-index type tags (graph jump engines only), written ahead of the
// graph payload for the same loud-mismatch property. The exact index is
// a pure function of loads + topology and carries no payload. Tag
// graphRejection belonged to the removed rejection-within-blocks
// sampler; its artifacts fail to decode with an error naming it.
const (
	graphNone = iota
	graphExact
	graphRejection
)

func encodeRNG(e *persist.Enc, r *rng.RNG) {
	st := r.State()
	for _, w := range st {
		e.U64(w)
	}
}

func decodeRNG(d *persist.Dec, r *rng.RNG) {
	var st [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	if d.Err() == nil {
		r.Restore(st)
	}
}

// encodeState writes the ball table verbatim: the dense id → bin and
// id → slot maps are the sampler's entire state, and the per-bin slot
// lists are their inverse.
func (b *BallList) encodeState(e *persist.Enc) {
	e.I32s(b.ballBin)
	e.I32s(b.pos)
}

// decodeState restores the table in place, rebuilding the per-bin lists
// from the verbatim position map and validating the bijection against
// the configuration's loads.
func (b *BallList) decodeState(d *persist.Dec, cfg *loadvec.Config) error {
	ballBin := d.I32s()
	pos := d.I32s()
	if d.Err() != nil {
		return d.Err()
	}
	n := cfg.N()
	if len(ballBin) != cfg.M() || len(pos) != len(ballBin) {
		return persist.Corruptf("ball list of %d/%d entries for %d balls", len(ballBin), len(pos), cfg.M())
	}
	bins := make([][]int32, n)
	for i := range bins {
		lst := make([]int32, cfg.Load(i))
		for j := range lst {
			lst[j] = -1
		}
		bins[i] = lst
	}
	for id, bin := range ballBin {
		if bin < 0 || int(bin) >= n {
			return persist.Corruptf("ball %d in bin %d of %d", id, bin, n)
		}
		p := pos[id]
		if p < 0 || int(p) >= len(bins[bin]) || bins[bin][p] != -1 {
			return persist.Corruptf("ball %d at invalid or duplicate slot %d of bin %d", id, p, bin)
		}
		bins[bin][p] = int32(id)
	}
	b.ballBin = ballBin
	b.pos = pos
	b.bins = bins
	return nil
}

// encodeState writes the tree's leaves; a Fenwick array is a pure
// function of them, so From(leaves) round-trips bit-exactly.
func (f *Fenwick) encodeState(e *persist.Enc) {
	e.Int(f.n)
	e.Int(f.m)
	e.I64s(f.t.Leaves())
}

func (f *Fenwick) decodeState(d *persist.Dec, cfg *loadvec.Config) error {
	n := d.Int()
	m := d.Int()
	leaves := d.I64s()
	if d.Err() != nil {
		return d.Err()
	}
	if n != cfg.N() || m != cfg.M() || len(leaves) != n {
		return persist.Corruptf("fenwick sampler shape %d/%d against config %d/%d", n, len(leaves), cfg.N(), cfg.M())
	}
	for i, v := range leaves {
		if v != int64(cfg.Load(i)) {
			return persist.Corruptf("fenwick sampler load %d at bin %d, config has %d", v, i, cfg.Load(i))
		}
	}
	f.n = n
	f.m = m
	f.t = fenwick.From(leaves)
	return nil
}

// encodeState writes the event heap verbatim, lazy clocks included: the
// heap slice in its array order (a valid heap stays a valid heap), the
// ball tables, the dead set, the sampler clock, the last-activated
// hint, and whether the initial rings have been seeded yet.
func (h *EventHeap) encodeState(e *persist.Enc) {
	e.I32s(h.ballBin)
	e.U64(uint64(len(h.bins)))
	for _, lst := range h.bins {
		e.I32s(lst)
	}
	e.Bools(h.dead)
	e.F64(h.now)
	e.Int(int(h.last))
	e.Bool(h.r != nil)
	e.U64(uint64(len(h.events)))
	for _, ev := range h.events {
		e.F64(ev.time)
		e.Int(int(ev.ball))
	}
}

// decodeState restores the heap in place. r becomes the heap's clock
// source iff the snapshot was taken after lazy seeding; otherwise the
// restored heap seeds itself on first use exactly like a fresh one.
func (h *EventHeap) decodeState(d *persist.Dec, cfg *loadvec.Config, r *rng.RNG) error {
	ballBin := d.I32s()
	nbins := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if nbins != cfg.N() {
		return persist.Corruptf("event heap over %d bins, config has %d", nbins, cfg.N())
	}
	bins := make([][]int32, nbins)
	for i := range bins {
		bins[i] = d.I32s()
	}
	dead := d.Bools()
	now := d.F64()
	last := d.Int()
	seeded := d.Bool()
	nev := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if len(dead) != len(ballBin) {
		return persist.Corruptf("event heap with %d balls but %d dead flags", len(ballBin), len(dead))
	}
	if len(ballBin) > 0 && (last < 0 || last >= len(ballBin)) {
		return persist.Corruptf("event heap last-ball hint %d of %d", last, len(ballBin))
	}
	live := 0
	seen := make([]bool, len(ballBin))
	for bin, lst := range bins {
		if len(lst) != cfg.Load(bin) {
			return persist.Corruptf("event heap holds %d balls in bin %d, config has %d", len(lst), bin, cfg.Load(bin))
		}
		for _, id := range lst {
			if id < 0 || int(id) >= len(ballBin) || seen[id] || dead[id] || int(ballBin[id]) != bin {
				return persist.Corruptf("event heap bin %d holds invalid ball %d", bin, id)
			}
			seen[id] = true
			live++
		}
	}
	if nev < 0 || nev > d.Remaining() {
		return persist.Corruptf("event heap with %d pending events in %d bytes", nev, d.Remaining())
	}
	events := make(eventQueue, nev)
	for i := range events {
		t := d.F64()
		ball := d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		if ball < 0 || ball >= len(ballBin) {
			return persist.Corruptf("event %d rings unknown ball %d", i, ball)
		}
		if i > 0 && t < events[(i-1)/2].time {
			return persist.Corruptf("event slice is not a heap at index %d", i)
		}
		events[i] = event{time: t, ball: int32(ball)}
	}
	if d.Err() != nil {
		return d.Err()
	}
	h.ballBin = ballBin
	h.bins = bins
	h.dead = dead
	h.now = now
	h.last = int32(last)
	h.events = events
	if seeded {
		h.r = r
	} else {
		h.r = nil
	}
	return nil
}

// EncodeState appends the engine's full state: configuration (+ level
// index), sampler, RNG words, clocks, and counters. The mover, graph
// topology, and PostMove hook are shape, not state — the decoder's
// engine supplies them.
func (e *Engine) EncodeState(enc *persist.Enc) {
	e.cfg.EncodeState(enc)
	switch s := e.sampler.(type) {
	case nil:
		enc.Int(samplerNone)
	case *BallList:
		enc.Int(samplerBallList)
		s.encodeState(enc)
	case *Fenwick:
		enc.Int(samplerFenwick)
		s.encodeState(enc)
	case *EventHeap:
		enc.Int(samplerEventHeap)
		s.encodeState(enc)
	default:
		panic(fmt.Sprintf("sim: sampler %s has no snapshot codec", e.sampler.Name()))
	}
	if e.gidx == nil {
		enc.Int(graphNone)
	} else {
		enc.Int(graphExact)
	}
	encodeRNG(enc, e.r)
	enc.F64(e.time)
	enc.I64(e.activations)
	enc.I64(e.moves)
	enc.I64(e.forced)
	enc.F64(e.horizon)
}

// DecodeState restores a snapshot into an engine of the same shape
// (same mover, tie rule, topology, and sampler type), built by the
// caller. On any error the engine is left unmodified.
func (e *Engine) DecodeState(d *persist.Dec) error {
	// A graph engine's level index is ball-sampling-only; the payload
	// encodes both shapes alike, so the engine picks the decoder.
	decode := loadvec.DecodeConfigState
	if e.gidx != nil {
		decode = loadvec.DecodeBallConfigState
	}
	cfg, err := decode(d)
	if err != nil {
		return err
	}
	if cfg.N() != e.cfg.N() {
		return persist.Corruptf("snapshot over %d bins, engine has %d", cfg.N(), e.cfg.N())
	}
	if cfg.LevelIndexed() != e.cfg.LevelIndexed() ||
		(cfg.LevelIndexed() && cfg.TieGap() != e.cfg.TieGap()) {
		return persist.Corruptf("snapshot level-index shape does not match the engine")
	}
	tag := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	switch s := e.sampler.(type) {
	case nil:
		if tag != samplerNone {
			return persist.Corruptf("snapshot carries sampler tag %d, engine has none", tag)
		}
	case *BallList:
		if tag != samplerBallList {
			return persist.Corruptf("snapshot sampler tag %d, engine wants ball-list", tag)
		}
		if err := s.decodeState(d, cfg); err != nil {
			return err
		}
	case *Fenwick:
		if tag != samplerFenwick {
			return persist.Corruptf("snapshot sampler tag %d, engine wants fenwick", tag)
		}
		if err := s.decodeState(d, cfg); err != nil {
			return err
		}
	case *EventHeap:
		if tag != samplerEventHeap {
			return persist.Corruptf("snapshot sampler tag %d, engine wants event-heap", tag)
		}
		if err := s.decodeState(d, cfg, e.r); err != nil {
			return err
		}
	default:
		return persist.Corruptf("engine sampler %s has no snapshot codec", e.sampler.Name())
	}
	gtag := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	switch {
	case e.gidx == nil:
		if gtag != graphNone {
			return persist.Corruptf("snapshot carries graph sampler tag %d, engine has none", gtag)
		}
	case gtag == graphRejection:
		return persist.Corruptf("snapshot graph sampler tag %d is the removed rejection sampler", gtag)
	case gtag != graphExact:
		return persist.Corruptf("snapshot graph sampler tag %d on a graph engine", gtag)
	}
	var st [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	time := d.F64()
	acts := d.I64()
	moves := d.I64()
	forced := d.I64()
	horizon := d.F64()
	if d.Err() != nil {
		return d.Err()
	}
	// The exact index is a deterministic function of the loads and the
	// topology; rebuild it over the restored configuration before
	// committing anything.
	var gidx *graphIndex
	if e.gidx != nil {
		gidx = newGraphIndex(cfg, e.gidx.g)
	}
	e.cfg = cfg
	e.gidx = gidx
	e.r.Restore(st)
	e.time, e.activations, e.moves, e.forced, e.horizon = time, acts, moves, forced, horizon
	return nil
}

// EncodeState appends the sharded engine's state at an epoch barrier:
// partition cuts, every shard's private engine state, the stale
// snapshot, the repartition policy counters, and the folded clocks.
// Between Runs the transient machinery — outboxes, worker pool, epoch
// sizing — is structurally empty, so none of it is serialized.
//
// The layout keeps three fields of the removed sharded jump mode so that
// artifacts stay byte-compatible: a mode flag (always false), a run
// horizon (always 0: plain shards never consulted it, and it was cleared
// between runs), and a census-present flag (always false).
func (s *Sharded) EncodeState(enc *persist.Enc) {
	enc.Int(s.n)
	enc.Int(s.p)
	enc.Bool(false) // jump mode
	enc.F64(s.epoch0)
	enc.Ints(s.cuts)
	encodeRNG(enc, s.root)
	enc.Ints(s.stale)
	enc.F64(s.time)
	enc.I64(s.acts)
	enc.I64(s.moves)
	enc.I64(s.crossProposed)
	enc.I64(s.crossApplied)
	enc.F64(0) // run horizon
	enc.Bool(s.repartEnabled)
	enc.Int(s.repartWait)
	enc.Int(s.repartBackoff)
	enc.I64(s.repartitions)
	enc.Bool(false) // external census
	for _, sh := range s.shards {
		enc.Int(sh.lo)
		enc.Int(sh.hi)
		encodeRNG(enc, sh.r)
		enc.F64(sh.t)
		enc.I64(sh.acts)
		enc.I64(sh.moves)
		enc.I64(sh.proposed)
		enc.I64(sh.landed)
		sh.cfg.EncodeState(enc)
		sh.smp.encodeState(enc)
	}
}

// DecodeState restores a snapshot into a sharded engine constructed
// with the same n and P. The restored cuts may differ from the
// constructor's (repartitioning moves them); shard ranges and scratch are
// rebuilt accordingly, exactly as migrate does after a live repartition.
// A payload of the removed sharded jump mode — its mode flag or external
// census set — fails with persist.ErrCorrupt.
func (s *Sharded) DecodeState(d *persist.Dec) error {
	n := d.Int()
	p := d.Int()
	jump := d.Bool()
	epoch0 := d.F64()
	cuts := d.Ints()
	if d.Err() != nil {
		return d.Err()
	}
	if jump {
		return persist.Corruptf("sharded payload of the removed shardedjump engine mode")
	}
	if n != s.n || p != s.p {
		return persist.Corruptf("snapshot shape %d bins × %d shards, engine is %d × %d", n, p, s.n, s.p)
	}
	if err := loadvec.ValidateCuts(cuts, n); err != nil {
		return persist.Corruptf("snapshot cuts: %v", err)
	}
	if len(cuts) != p+1 {
		return persist.Corruptf("snapshot has %d cuts for %d shards", len(cuts), p)
	}
	decodeRNG(d, s.root)
	stale := d.Ints()
	time := d.F64()
	acts := d.I64()
	moves := d.I64()
	crossProposed := d.I64()
	crossApplied := d.I64()
	d.F64() // run horizon: always 0 for the surviving mode, never consulted
	repartEnabled := d.Bool()
	repartWait := d.Int()
	repartBackoff := d.Int()
	repartitions := d.I64()
	hasExt := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if len(stale) != n {
		return persist.Corruptf("stale snapshot of %d bins, engine has %d", len(stale), n)
	}
	for i, l := range stale {
		if l < 0 {
			return persist.Corruptf("stale snapshot with negative load %d at bin %d", l, i)
		}
	}
	if repartBackoff < repartCheckBase || repartBackoff > repartCheckMax || repartWait < 0 {
		return persist.Corruptf("repartition counters wait=%d backoff=%d out of range", repartWait, repartBackoff)
	}
	if hasExt {
		return persist.Corruptf("external census of the removed shardedjump engine mode")
	}
	shCfg := make([]*loadvec.Config, p)
	type shardState struct {
		rngState                      [4]uint64
		t                             float64
		acts, moves, proposed, landed int64
	}
	states := make([]shardState, p)
	for i := 0; i < p; i++ {
		lo := d.Int()
		hi := d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		if lo != cuts[i] || hi != cuts[i+1] {
			return persist.Corruptf("shard %d range [%d,%d) disagrees with cuts [%d,%d)", i, lo, hi, cuts[i], cuts[i+1])
		}
		for j := range states[i].rngState {
			states[i].rngState[j] = d.U64()
		}
		states[i].t = d.F64()
		states[i].acts = d.I64()
		states[i].moves = d.I64()
		states[i].proposed = d.I64()
		states[i].landed = d.I64()
		cfg, err := loadvec.DecodeConfigState(d)
		if err != nil {
			return err
		}
		if cfg.N() != hi-lo {
			return persist.Corruptf("shard %d config over %d bins for range [%d,%d)", i, cfg.N(), lo, hi)
		}
		if cfg.LevelIndexed() {
			return persist.Corruptf("shard %d config carries a level index", i)
		}
		shCfg[i] = cfg
		if err := s.shards[i].smp.decodeState(d, cfg); err != nil {
			return err
		}
	}
	if d.Err() != nil {
		return d.Err()
	}

	// All payload bytes validated — commit.
	s.epoch0 = epoch0
	copy(s.cuts, cuts)
	s.stale = stale
	s.time, s.acts, s.moves = time, acts, moves
	s.crossProposed, s.crossApplied = crossProposed, crossApplied
	s.repartEnabled, s.repartWait, s.repartBackoff, s.repartitions = repartEnabled, repartWait, repartBackoff, repartitions
	for i, sh := range s.shards {
		sh.lo, sh.hi = cuts[i], cuts[i+1]
		sh.r.Restore(states[i].rngState)
		sh.t = states[i].t
		sh.acts, sh.moves = states[i].acts, states[i].moves
		sh.proposed, sh.landed = states[i].proposed, states[i].landed
		sh.cfg = shCfg[i]
		s.cfgs[i] = shCfg[i]
		sh.out = sh.out[:0]
	}
	s.refold()
	return nil
}
