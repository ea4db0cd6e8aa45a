package main

import (
	"bytes"
	"math"

	rls "repro"
	"repro/internal/fenwick"
	"repro/internal/graphs"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

// The layer probes time calls into one layer's public functions at the
// sizes the workloads use, in batches, each batch one span whose N is
// the number of calls. They run only in the traced run and feed the
// per-layer metrics and the cost model.

// sink keeps the probes' results live so the compiler cannot drop the
// calls being timed.
var sink int64

func probeReps(o options) int {
	if o.tiny {
		return 2
	}
	return 8
}

// probeRNG times the draws the engines make: Intn over the direct
// cells' n (ball and destination picks), Geometric block lengths over
// the range of move probabilities a jump run passes through, and the
// Erlang time gaps of those blocks.
func probeRNG(o options, tr *tracer, rep *report) {
	const batch = 1 << 15
	r := rng.New(cellSeed(o.seed, 7000, 0))
	ps := make([]float64, 256)
	for i := range ps {
		ps[i] = math.Exp(math.Log(1e-4) + (math.Log(0.5)-math.Log(1e-4))*float64(i)/float64(len(ps)-1))
	}
	for round := 0; round < probeReps(o); round++ {
		sp := tr.begin("rng.intn", -1)
		for i := 0; i < batch; i++ {
			sink += int64(r.Intn(1024))
		}
		tr.end(sp, batch)
		sp = tr.begin("rng.geometric", -1)
		for i := 0; i < batch; i++ {
			sink += r.Geometric(ps[i&255])
		}
		tr.end(sp, batch)
		ks := make([]int64, batch)
		for i := range ks {
			ks[i] = r.Geometric(ps[i&255])
		}
		sp = tr.begin("rng.erlang", -1)
		var t float64
		for _, k := range ks {
			t += r.Erlang(k, 16384)
		}
		tr.end(sp, batch)
		sink += int64(t)
	}
	rep.set("rng.intn_ns", tr.perOp("rng.intn"), "ns")
	rep.set("rng.geometric_ns", tr.perOp("rng.geometric"), "ns")
	rep.set("rng.erlang_ns", tr.perOp("rng.erlang"), "ns")
}

// probeFenwick times point updates and prefix searches on a tree with
// one leaf per bin of the graph cells.
func probeFenwick(o options, tr *tracer, rep *report) {
	const batch = 1 << 15
	n := graphCells(o)[1].n
	r := rng.New(cellSeed(o.seed, 7000, 1))
	t := fenwick.New(n)
	for i := 0; i < n; i++ {
		t.Add(i, int64(1+r.Intn(16)))
	}
	idx := make([]int, batch)
	for round := 0; round < probeReps(o); round++ {
		for i := range idx {
			idx[i] = r.Intn(n)
		}
		sp := tr.begin("fenwick.add", -1)
		for _, i := range idx {
			t.Add(i, 1)
		}
		tr.end(sp, batch)
		total := t.Prefix(n - 1)
		targets := make([]int64, batch)
		for i := range targets {
			targets[i] = r.Int63n(total)
		}
		sp = tr.begin("fenwick.find", -1)
		for _, x := range targets {
			i, _ := t.Find(x)
			sink += int64(i)
		}
		tr.end(sp, batch)
	}
	rep.set("fenwick.add_ns", tr.perOp("fenwick.add"), "ns")
	rep.set("fenwick.find_ns", tr.perOp("fenwick.find"), "ns")
}

// probeGraphs times building the random-16-regular graph, which
// Runner.Run does on every run of that cell, and neighbour lookups on
// the three graph cells' topologies.
func probeGraphs(o options, tr *tracer, rep *report) {
	cells := graphCells(o)
	var rr graphs.Graph
	for i := 0; i < 3; i++ {
		sp := tr.begin("graphs.build", -1)
		g, err := graphs.NewRandomRegularSeed(cells[2].n, 16, cellSeed(o.seed, 7000, 2+i))
		tr.end(sp, 1)
		if err != nil {
			rep.fail("random-regular build: %v", err)
			return
		}
		rr = g
	}
	topos := []graphs.Graph{graphs.Torus2D{Side: isqrt(cells[0].n)}, graphs.Expander{Side: isqrt(cells[1].n)}, rr}
	for round := 0; round < probeReps(o); round++ {
		for _, g := range topos {
			n, deg := g.N(), g.Degree(0)
			sp := tr.begin("graphs.neighbor", -1)
			for i := 0; i < n; i++ {
				for k := 0; k < deg; k++ {
					sink += int64(g.Neighbor(i, k))
				}
			}
			tr.end(sp, int64(n*deg))
		}
	}
	rep.set("graphs.build_ms", tr.perOp("graphs.build")/1e6, "ms")
	rep.set("graphs.neighbor_ns", tr.perOp("graphs.neighbor"), "ns")
}

// isqrt is the side of a square bin count.
func isqrt(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// probeLoadvec replays the jump chain of the end-game cell and the
// serve-churn event stream through a Config with the level index on.
// The chain is first drawn and applied (sample + move), then its moves
// are replayed alone on a fresh Config, so sample = both − move.
func probeLoadvec(o options, tr *tracer, rep *report) {
	const chunk = 1000
	n, steps := 16384, 100_000
	if o.tiny {
		n, steps = 256, 2000
	}
	v := loadvec.AllInOne().Generate(n, n, rng.New(1))
	r := rng.New(cellSeed(o.seed, 7000, 10))
	a := loadvec.NewConfig(v)
	a.EnableLevelIndex()
	var pairs [][2]int
	for len(pairs) < steps && a.MoveWeight() > 0 {
		sp := tr.begin("loadvec.sample_move", -1)
		k := 0
		for ; k < chunk && a.MoveWeight() > 0; k++ {
			src, dst := a.SampleMovePair(r)
			a.Move(src, dst)
			pairs = append(pairs, [2]int{src, dst})
		}
		tr.end(sp, int64(k))
	}
	b := loadvec.NewConfig(v)
	b.EnableLevelIndex()
	for i := 0; i < len(pairs); i += chunk {
		sp := tr.begin("loadvec.move", -1)
		end := min(i+chunk, len(pairs))
		for _, p := range pairs[i:end] {
			b.Move(p[0], p[1])
		}
		tr.end(sp, int64(end-i))
	}
	if !b.Loads().Equal(a.Loads()) {
		rep.fail("loadvec replay: the replayed chain ended elsewhere")
	}
	move := tr.perOp("loadvec.move")
	rep.set("loadvec.move_ns", move, "ns")
	rep.set("loadvec.sample_ns", tr.perOp("loadvec.sample_move")-move, "ns")

	c := serveConfigFor(o)
	cfg := loadvec.NewConfig(loadvec.OneChoice().Generate(c.bins, c.bins*c.ballsPerBin, rng.New(cellSeed(o.seed, 7000, 11))))
	cfg.EnableLevelIndex()
	gen := rng.New(cellSeed(o.seed, 6000, 0))
	bins := make([]int, 5*chunk)
	for round := 0; round < 4*probeReps(o); round++ {
		for i := range bins {
			bins[i] = gen.Intn(c.bins)
		}
		sp := tr.begin("loadvec.add", -1)
		for _, bin := range bins {
			cfg.AddBall(bin)
		}
		tr.end(sp, int64(len(bins)))
		sp = tr.begin("loadvec.remove", -1)
		for _, bin := range bins {
			cfg.RemoveBall(bin)
		}
		tr.end(sp, int64(len(bins)))
	}
	if err := cfg.Validate(); err != nil {
		rep.fail("loadvec churn replay: %v", err)
	}
	rep.set("loadvec.add_ns", tr.perOp("loadvec.add"), "ns")
	rep.set("loadvec.remove_ns", tr.perOp("loadvec.remove"), "ns")
}

// probeSession replays a serve-churn event stream on rls.Session for a
// direct and a jump tenant, then snapshots and resumes each one.
func probeSession(o options, tr *tracer, rep *report) {
	c := serveConfigFor(o)
	batches := 2000
	if o.tiny {
		batches = 50
	}
	var runs, moves, snapBytes, balls int64
	for i := 0; i < 2; i++ {
		l := &tenantLog{seed: cellSeed(o.seed, 5000, i), jump: i == 1, gen: rng.New(cellSeed(o.seed, 6000, i))}
		s := replaySession(c, l)
		for b := 0; b < batches; b++ {
			adds, _ := l.nextBody(c.bins)
			sp := tr.begin("rls.session.add", -1)
			for _, bin := range adds {
				if err := s.AddBall(bin); err != nil {
					rep.fail("session replay: %v", err)
				}
			}
			tr.end(sp, addsPerBatch)
			sp = tr.begin("rls.session.remove", -1)
			for k := 0; k < addsPerBatch; k++ {
				if _, err := s.RemoveRandomBall(); err != nil {
					rep.fail("session replay: %v", err)
				}
			}
			tr.end(sp, addsPerBatch)
			before := s.Moves()
			sp = tr.begin("rls.session.run", -1)
			if err := s.RunFor(runFor); err != nil {
				rep.fail("session replay: %v", err)
			}
			tr.end(sp, 1)
			runs++
			moves += s.Moves() - before
		}
		b, n := probePersist(s, tr, rep)
		snapBytes += b
		balls += n
	}
	rep.set("rls.session.add_ns", tr.perOp("rls.session.add"), "ns")
	rep.set("rls.session.remove_ns", tr.perOp("rls.session.remove"), "ns")
	rep.set("rls.session.run_ns", tr.perOp("rls.session.run"), "ns")
	rep.set("rls.session.run_moves", float64(moves)/float64(runs), "count")
	rep.set("persist.snapshot_ns_per_ball", tr.perOp("persist.snapshot"), "ns")
	rep.set("persist.resume_ns_per_ball", tr.perOp("persist.resume"), "ns")
	rep.set("persist.bytes_per_ball", float64(snapBytes)/float64(balls), "bytes")
}

// probePersist snapshots s and resumes it three times, checking that the
// resumed session reports the same state. It returns the artifact bytes
// and balls of the snapshots taken.
func probePersist(s *rls.Session, tr *tracer, rep *report) (size, balls int64) {
	m := int64(s.M())
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		sp := tr.begin("persist.snapshot", -1)
		err := s.Snapshot(&buf)
		tr.end(sp, m)
		if err != nil {
			rep.fail("snapshot: %v", err)
			return size, balls
		}
		size += int64(buf.Len())
		balls += m
		sp = tr.begin("persist.resume", -1)
		back, err := rls.ResumeSession(&buf)
		tr.end(sp, m)
		if err != nil {
			rep.fail("resume: %v", err)
			return size, balls
		}
		if back.Stats() != s.Stats() {
			rep.fail("resume: stats %+v, want %+v", back.Stats(), s.Stats())
		}
	}
	return size, balls
}

// probeSharded runs the first dense-sharded cell of sweep-complete
// through sim directly, as Runner does, to read the engine's cross-shard
// and repartition counters, which Runner does not expose.
func probeSharded(o options, tr *tracer, rep *report) {
	cells := completeCells(o)
	ci := len(cells) - 1
	c := cells[ci]
	stream := rng.New(cellSeed(o.seed, 0, ci))
	v := loadvec.AllInOne().Generate(c.n, c.m, stream)
	e := sim.NewSharded(v, o.procs, 0, stream)
	sp := tr.begin("sim.sharded.probe", -1)
	res := e.Run(sim.ShardedUntilPerfect(), noBudget)
	tr.end(sp, res.Moves)
	if !res.Stopped || !res.Final.IsPerfect() {
		rep.fail("sharded probe: not perfect")
	}
	rep.set("sim.sharded.cross_proposed", float64(e.CrossProposed()), "count")
	rep.set("sim.sharded.cross_applied", float64(e.CrossApplied()), "count")
	rep.set("sim.sharded.repartitions", float64(e.Repartitions()), "count")
}

// probeLayers runs every probe and returns the costs the model uses.
func probeLayers(o options, tr *tracer, rep *report) layerCosts {
	tr.nextRun()
	probeRNG(o, tr, rep)
	probeFenwick(o, tr, rep)
	probeGraphs(o, tr, rep)
	probeLoadvec(o, tr, rep)
	probeSession(o, tr, rep)
	probeSharded(o, tr, rep)
	m := func(k string) float64 { return rep.metrics[k].Value }
	return layerCosts{
		intn: m("rng.intn_ns"), geometric: m("rng.geometric_ns"), erlang: m("rng.erlang_ns"),
		sample: m("loadvec.sample_ns"), move: m("loadvec.move_ns"),
		fenAdd: m("fenwick.add_ns"), fenFind: m("fenwick.find_ns"),
		neighbor: m("graphs.neighbor_ns"), buildNs: m("graphs.build_ms") * 1e6,
	}
}

// simLayerMetrics derives the sim layer's per-engine costs and exact
// counts from traced sweep loops.
func simLayerMetrics(o options, runs []sweepRun, rep *report) {
	type agg struct {
		wall, moves, acts float64
	}
	by := map[string]*agg{}
	byCell := map[string]*agg{}
	var r0moves, r0acts, dMoves, dActs int64
	for _, sr := range runs {
		for _, r := range sr.recs {
			c := sr.cells[r.cell]
			if by[c.engine] == nil {
				by[c.engine] = &agg{}
			}
			by[c.engine].wall += float64(r.wall)
			by[c.engine].moves += float64(r.moves)
			by[c.engine].acts += float64(r.acts)
			if byCell[c.name] == nil {
				byCell[c.name] = &agg{}
			}
			byCell[c.name].wall += float64(r.wall)
			byCell[c.name].moves += float64(r.moves)
			if r.round == 0 {
				r0moves += r.moves
				r0acts += r.acts
				if c.engine == "direct" {
					dMoves += r.moves
					dActs += r.acts
				}
			}
		}
	}
	for _, e := range []string{"direct", "jump", "sharded", "graph-exact", "graph-hybrid"} {
		if a := by[e]; a != nil && a.moves > 0 {
			rep.set("sim."+e+".ns_per_move", a.wall/a.moves, "ns")
		}
	}
	if a := by["direct"]; a != nil && a.acts > 0 {
		rep.set("sim.direct.ns_per_activation", a.wall/a.acts, "ns")
	}
	perMove := func(name string) float64 {
		if a := byCell[name]; a != nil && a.moves > 0 {
			return a.wall / a.moves
		}
		return math.NaN()
	}
	best := math.Min(perMove("dense-direct"), perMove("dense-jump"))
	rep.set("sim.sharded.vs_best_seq", best/perMove("dense-sharded"), "ratio")
	rep.set("sim.sharded.cores", float64(o.procs), "count")
	rep.set("sim.moves", float64(r0moves), "count")
	rep.set("sim.activations", float64(r0acts), "count")
	if dActs > 0 {
		rep.set("sim.direct.move_ratio", float64(dMoves)/float64(dActs), "ratio")
	}
}
