package sim

import (
	"repro/internal/loadvec"
	"repro/internal/persist"
	"repro/internal/rng"
)

// This file is sim's half of the snapshot codec: the ball list and the
// sequential Engine (all four protocol shapes: direct, jump, strict jump,
// graph jump). Those are the engines a Session holds; the Sharded engine
// runs only inside one Runner call and has no codec.
//
// DecodeState decodes *into* an engine of the matching shape — the root
// package's ResumeSession rebuilds the shape from the snapshot header
// (mode, strict, topology) and then overwrites the engine's state, so
// movers and topologies never need to be serialized. Everything whose
// order evolved under simulation (ball-list slots, the level index's bin
// permutation, RNG words) ships verbatim; everything derivable (prefix-sum trees, graph
// index) is rebuilt through the same code paths the live engine uses.
// A graph engine's level index is built by its first random departure,
// so its payload carries the plain index or none; one that does not
// exist yet is built from the same loads, at the same draw, after a
// restore as in the run that never stopped.

// Sampler type tags, written ahead of the sampler payload so a decode
// into an engine of the wrong shape fails loudly instead of misreading.
// The numbers are frozen: tags samplerFenwick and samplerEventHeap
// belonged to the removed Fenwick and event-heap samplers, and artifacts
// carrying them fail to decode with an error naming the sampler.
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

// EncodeState appends the engine's full state: configuration (+ level
// index), sampler, RNG words, clocks, and counters. The mover, graph
// topology, and PostMove hook are shape, not state — the decoder's
// engine supplies them. Snapshots are taken between runs, where a jump
// engine's pending null mass is 0; the format has no field for it, so
// encoding mid-run (from a PostMove hook or a stop condition) panics.
func (e *Engine) EncodeState(enc *persist.Enc) {
	if e.null != 0 {
		panic("sim: EncodeState with untallied null activations (mid-run)")
	}
	e.cfg.EncodeState(enc)
	if e.balls == nil {
		enc.Int(samplerNone)
	} else {
		enc.Int(samplerBallList)
		e.balls.encodeState(enc)
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
	cfg, err := loadvec.DecodeConfigState(d)
	if err != nil {
		return err
	}
	if cfg.N() != e.cfg.N() {
		return persist.Corruptf("snapshot over %d bins, engine has %d", cfg.N(), e.cfg.N())
	}
	// A graph engine's plain index exists once a random departure built
	// it, so the payload may or may not carry one; other engines' index
	// is fixed by their shape.
	if e.gidx != nil {
		if cfg.LevelIndexed() && cfg.TieGap() != 1 {
			return persist.Corruptf("snapshot level index has tie gap %d, a graph engine's has 1", cfg.TieGap())
		}
	} else if cfg.TieGap() != e.cfg.TieGap() { // 0 when unindexed
		return persist.Corruptf("snapshot level-index shape does not match the engine")
	}
	tag := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	switch tag {
	case samplerFenwick:
		return persist.Corruptf("snapshot sampler tag %d is the removed fenwick sampler", tag)
	case samplerEventHeap:
		return persist.Corruptf("snapshot sampler tag %d is the removed event-heap sampler", tag)
	}
	var balls *BallList
	if e.balls == nil {
		if tag != samplerNone {
			return persist.Corruptf("snapshot carries sampler tag %d, engine has none", tag)
		}
	} else {
		if tag != samplerBallList {
			return persist.Corruptf("snapshot sampler tag %d, engine wants ball-list", tag)
		}
		balls = new(BallList)
		if err := balls.decodeState(d, cfg); err != nil {
			return err
		}
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
	if balls != nil {
		e.balls = balls
	}
	e.gidx = gidx
	e.r.Restore(st)
	e.time, e.activations, e.moves, e.forced, e.horizon = time, acts, moves, forced, horizon
	e.null = 0
	return nil
}
