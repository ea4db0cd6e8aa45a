package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/graphs"
	"repro/internal/loadvec"
	"repro/internal/persist"
	"repro/internal/rng"
)

// scratchGraphWeight recomputes W_G = Σ_i load(i)·|admissible slots of i|
// from the raw loads, the definition graphIndex must track.
func scratchGraphWeight(v loadvec.Vector, g Topology) int64 {
	var w int64
	for i, li := range v {
		a := 0
		for k := 0; k < g.Degree(i); k++ {
			if v[g.Neighbor(i, k)] <= li-1 {
				a++
			}
		}
		w += int64(li) * int64(a)
	}
	return w
}

// TestGraphIndexMatchesScratch drives the index through random moves and
// churn on every catalogue family, running validate (a fresh-build
// cross-check of the load mirror, adm, the weights, the Fenwick leaves and
// W_G) after every op and a from-scratch recount of the total and each
// admissible count periodically. The small expanders carry self-loops and
// parallel edges, and the random regular graphs keep the pairing model's
// multi-edges — the slot multiplicities the O(Δ) update must count.
func TestGraphIndexMatchesScratch(t *testing.T) {
	r := rng.New(555)
	topos := []Topology{
		graphs.Ring{Vertices: 16},
		graphs.Ring{Vertices: 2},
		graphs.Torus2D{Side: 4},
		graphs.Torus2D{Side: 2},
		graphs.Hypercube{Dim: 4},
		graphs.Expander{Side: 3},
		graphs.Expander{Side: 4},
		graphs.Expander{Side: 5},
	}
	rr, err := graphs.NewRandomRegular(16, 3, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	topos = append(topos, rr) // the pairing model keeps multi-edges
	dense, err := graphs.NewRandomRegularSeed(32, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	topos = append(topos, dense)
	// The expander at side 3 must exercise both multigraph features.
	selfLoop, parallel := false, false
	e3 := graphs.Expander{Side: 3}
	for i := 0; i < e3.N(); i++ {
		seen := map[int]bool{}
		for k := 0; k < e3.Degree(i); k++ {
			j := e3.Neighbor(i, k)
			selfLoop = selfLoop || j == i
			parallel = parallel || (j != i && seen[j])
			seen[j] = true
		}
	}
	if !selfLoop || !parallel {
		t.Fatalf("expander side 3: self-loop %v, parallel edge %v; want both", selfLoop, parallel)
	}
	for _, g := range topos {
		n := g.N()
		v := make(loadvec.Vector, n)
		for i := range v {
			v[i] = r.Intn(5)
		}
		if v.Balls() == 0 {
			v[0] = 1
		}
		cfg := loadvec.NewConfig(v)
		gx := newGraphIndex(cfg, g)
		check := func(step int) {
			if err := gx.validate(cfg); err != nil {
				t.Fatalf("%T n=%d step %d: %v", g, n, step, err)
			}
			if step%23 != 0 {
				return
			}
			loads := cfg.Snapshot()
			if got, want := gx.wt.Total(), scratchGraphWeight(loads, g); got != want {
				t.Fatalf("step %d: W_G = %d, want %d (loads %v)", step, got, want, loads)
			}
			for i := 0; i < n; i++ {
				a := 0
				for k := 0; k < g.Degree(i); k++ {
					if loads[g.Neighbor(i, k)] <= loads[i]-1 {
						a++
					}
				}
				if int(gx.adm[i]) != a {
					t.Fatalf("step %d: adm[%d] = %d, want %d", step, i, gx.adm[i], a)
				}
			}
		}
		check(-1)
		for step := 0; step < 400; step++ {
			switch r.Intn(5) {
			case 0: // graph-legal move
				src := r.Intn(n)
				if gx.adm[src] > 0 && cfg.Load(src) > 0 {
					dst := g.Neighbor(src, r.Intn(g.Degree(src)))
					if cfg.Load(dst) <= cfg.Load(src)-1 {
						cfg.Move(src, dst)
						gx.update(cfg, src, dst)
					}
				}
			case 1: // sampled jump-chain move
				if gx.wt.Total() > 0 {
					src, dst := gx.sample(r)
					cfg.Move(src, dst)
					gx.update(cfg, src, dst)
				}
			case 2: // destructive move
				src, dst := r.Intn(n), r.Intn(n)
				if src != dst && cfg.Load(src) > 0 {
					cfg.Move(src, dst)
					gx.update(cfg, src, dst)
				}
			case 3:
				bin := r.Intn(n)
				cfg.AddBall(bin)
				gx.update(cfg, bin, -1)
			case 4:
				if bin := r.Intn(n); cfg.Load(bin) > 0 && cfg.M() > 1 {
					cfg.RemoveBall(bin)
					gx.update(cfg, bin, -1)
				}
			}
			check(step)
		}
		check(400)
	}
}

// TestGraphIndexSampleLaw checks both validity (every sampled pair is a
// legal graph move) and the exact law: pair (i, j) must appear with
// probability load(i)·s_ij/W_G where s_ij is the number of parallel
// slots of i pointing at j — the multigraph-exact law of GraphRLS.
func TestGraphIndexSampleLaw(t *testing.T) {
	g := graphs.Ring{Vertices: 5}
	v := loadvec.Vector{4, 1, 2, 0, 3}
	cfg := loadvec.NewConfig(v)
	gx := newGraphIndex(cfg, g)
	W := float64(gx.wt.Total())
	if int64(W) != scratchGraphWeight(v, g) {
		t.Fatalf("W_G = %g, want %d", W, scratchGraphWeight(v, g))
	}
	r := rng.New(31)
	const draws = 200000
	counts := map[[2]int]int{}
	for i := 0; i < draws; i++ {
		src, dst := gx.sample(r)
		if v[dst] > v[src]-1 {
			t.Fatalf("illegal pair (%d,%d): loads %d,%d", src, dst, v[src], v[dst])
		}
		counts[[2]int{src, dst}]++
	}
	for i := range v {
		for j := range v {
			slots := 0
			for k := 0; k < g.Degree(i); k++ {
				if g.Neighbor(i, k) == j && v[j] <= v[i]-1 {
					slots++
				}
			}
			want := float64(v[i]) * float64(slots) / W * draws
			got := float64(counts[[2]int{i, j}])
			if want == 0 {
				if got != 0 {
					t.Errorf("pair (%d,%d): %g draws, want 0", i, j, got)
				}
				continue
			}
			if sigma := math.Sqrt(want); math.Abs(got-want) > 5*sigma+1 {
				t.Errorf("pair (%d,%d): %g draws, want %g ± %g", i, j, got, want, 5*sigma)
			}
		}
	}
}

// TestGraphJumpEngineBalances runs the graph jump engine to perfection on
// each catalogue topology from the worst-case start and cross-checks the
// invariants shared with the direct engine. A run never draws a random
// ball, so it must leave the configuration without a level index: the
// graph index owns the move weight.
func TestGraphJumpEngineBalances(t *testing.T) {
	topos := []Topology{
		graphs.Ring{Vertices: 16},
		graphs.Torus2D{Side: 4},
		graphs.Hypercube{Dim: 4},
	}
	for _, g := range topos {
		v := make(loadvec.Vector, g.N())
		v[0] = 64
		e := NewGraphJumpEngine(v, g, rng.New(2))
		res := e.Run(UntilPerfect(), 0)
		if !res.Stopped {
			t.Fatalf("%T: did not balance", g)
		}
		if !res.Final.IsPerfect() {
			t.Fatalf("%T: final %v not perfect", g, res.Final)
		}
		if res.Moves >= res.Activations {
			t.Fatalf("%T: moves %d not below activations %d", g, res.Moves, res.Activations)
		}
		if res.Time <= 0 {
			t.Fatalf("%T: time %g", g, res.Time)
		}
		if e.Cfg().LevelIndexed() {
			t.Fatalf("%T: a graph jump run built a level index", g)
		}
	}
}

// TestStrictJumpEngineBalances runs the strict jump engine to perfection
// and checks every move it makes is strict-legal via a PostMove probe.
func TestStrictJumpEngineBalances(t *testing.T) {
	v := make(loadvec.Vector, 16)
	v[0] = 64
	e := NewStrictJumpEngine(v, rng.New(3))
	e.PostMove = func(e *Engine, src, dst int) {
		// After the move, src lost one ball and dst gained one, so the
		// strict precondition pre(src) ≥ pre(dst)+2 reads post(src) ≥
		// post(dst).
		if e.Cfg().Load(src) < e.Cfg().Load(dst) {
			t.Fatalf("non-strict move %d→%d", src, dst)
		}
	}
	res := e.Run(UntilPerfect(), 0)
	if !res.Stopped || !res.Final.IsPerfect() {
		t.Fatalf("did not balance: %v", res)
	}
}

// TestGraphJumpHorizonClamp pins the horizon behaviour shared with the
// plain jump engine: a time-targeted run lands exactly on the horizon.
func TestGraphJumpHorizonClamp(t *testing.T) {
	v := make(loadvec.Vector, 16)
	v[0] = 64
	e := NewGraphJumpEngine(v, graphs.Ring{Vertices: 16}, rng.New(4))
	const h = 0.75
	e.SetHorizon(h)
	res := e.Run(UntilTime(h), 0)
	if res.Time != h {
		t.Fatalf("stopped at t=%g, want exactly %g", res.Time, h)
	}
}

// TestGraphJumpChurn exercises AddBall/RemoveBall/ForceMove keeping the
// graph index in sync (validated against scratch after each event).
func TestGraphJumpChurn(t *testing.T) {
	g := graphs.Hypercube{Dim: 3}
	v := make(loadvec.Vector, 8)
	v[0] = 24
	e := NewGraphJumpEngine(v, g, rng.New(6))
	r := rng.New(7)
	for i := 0; i < 200; i++ {
		switch r.Intn(3) {
		case 0:
			e.AddBall(r.Intn(8))
		case 1:
			if bin := e.RandomBin(); e.Cfg().M() > 1 {
				e.RemoveBall(bin)
			}
		case 2:
			src, dst := r.Intn(8), r.Intn(8)
			if src != dst && e.Cfg().Load(src) > 0 {
				e.ForceMove(src, dst)
			}
		}
		e.Step()
		if got, want := e.gidx.wt.Total(), scratchGraphWeight(e.Cfg().Snapshot(), g); got != want {
			t.Fatalf("event %d: W_G = %d, want %d", i, got, want)
		}
	}
}

// TestGraphJumpEngineInvariants drives graph jump engines on a torus, an
// expander small enough to carry self-loops and parallel edges, and a
// random-regular multigraph through steps, churn (AddBall, RandomBin then
// RemoveBall), ForceMove and snapshot → restore, checking the on-demand
// invariants after every op: the configuration and its level index
// (Config.Validate), the graph index against a fresh build (validate),
// and the slot table against Topology.Neighbor. The configuration carries
// no level index until the first RandomBin and the plain one (tie gap 1)
// after it. Departures start only at op 100, so the restores at ops 24,
// 49, 74 and 99 round-trip an engine without an index and the later ones
// an engine with one; a restored engine must re-encode to the same bytes
// and carry the same index as the one it was taken from.
func TestGraphJumpEngineInvariants(t *testing.T) {
	rr, err := graphs.NewRandomRegularSeed(24, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []Topology{graphs.Torus2D{Side: 5}, graphs.Expander{Side: 3}, rr} {
		n := g.N()
		v := make(loadvec.Vector, n)
		v[0] = 3 * n
		e := NewGraphJumpEngine(v, g, rng.New(21))
		r := rng.New(22)
		sampled := false // whether RandomBin has run, building the index
		check := func(op int, what string) {
			t.Helper()
			cfg := e.Cfg()
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%T op %d (%s): config: %v", g, op, what, err)
			}
			if cfg.LevelIndexed() != sampled || sampled && cfg.TieGap() != 1 {
				t.Fatalf("%T op %d (%s): level index %v with gap %d after RandomBin %v, want gap 1 iff sampled",
					g, op, what, cfg.LevelIndexed(), cfg.TieGap(), sampled)
			}
			if err := e.gidx.validate(cfg); err != nil {
				t.Fatalf("%T op %d (%s): %v", g, op, what, err)
			}
			for i := 0; i < n; i++ {
				for k := 0; k < g.Degree(i); k++ {
					if got, want := int(e.gidx.slots(i)[k]), g.Neighbor(i, k); got != want {
						t.Fatalf("%T op %d (%s): slot (%d,%d) = %d, Neighbor %d", g, op, what, i, k, got, want)
					}
				}
			}
		}
		check(-1, "fresh")
		for op := 0; op < 300; op++ {
			var what string
			switch r.Intn(5) {
			case 0, 1:
				what = "step"
				e.Step()
			case 2:
				what = "add"
				e.AddBall(r.Intn(n))
			case 3:
				what = "remove"
				if op < 100 {
					break
				}
				sampled = true
				if bin := e.RandomBin(); e.Cfg().M() > 1 {
					e.RemoveBall(bin)
				}
			case 4:
				what = "force"
				if src, dst := r.Intn(n), r.Intn(n); src != dst && e.Cfg().Load(src) > 0 {
					e.ForceMove(src, dst)
				}
			}
			if op%25 == 24 {
				what = "restore"
				// Snapshots are taken between runs: close the hand-driven
				// steps with the null tally Advance would draw.
				e.tallyNull()
				var enc persist.Enc
				e.EncodeState(&enc)
				restored := NewGraphJumpEngine(make(loadvec.Vector, n), g, rng.New(0))
				if err := restored.DecodeState(persist.NewDec(enc.Bytes())); err != nil {
					t.Fatalf("%T op %d: restore: %v", g, op, err)
				}
				var again persist.Enc
				restored.EncodeState(&again)
				if !bytes.Equal(again.Bytes(), enc.Bytes()) {
					t.Fatalf("%T op %d: restored engine re-encodes differently", g, op)
				}
				e = restored
			}
			check(op, what)
		}
	}
}

// TestGraphJumpResumeBeforeFirstDeparture snapshots a graph jump engine
// that has run and taken arrivals but never drawn a random ball, so its
// configuration has no level index. The restored engine and the original
// then run the same departures and steps: both build the index at the
// same RandomBin from the same loads and must agree draw for draw and
// byte for byte.
func TestGraphJumpResumeBeforeFirstDeparture(t *testing.T) {
	g := graphs.Torus2D{Side: 6}
	n := g.N()
	v := make(loadvec.Vector, n)
	v[0] = 4 * n
	a := NewGraphJumpEngine(v, g, rng.New(31))
	for i := 0; i < 40; i++ {
		a.Step()
		a.AddBall(i % n)
	}
	// Snapshots are taken between runs: close the hand-driven steps with
	// the null tally Advance would draw, here and before every encode below.
	a.tallyNull()
	var enc persist.Enc
	a.EncodeState(&enc)
	b := NewGraphJumpEngine(make(loadvec.Vector, n), g, rng.New(0))
	if err := b.DecodeState(persist.NewDec(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if a.Cfg().LevelIndexed() || b.Cfg().LevelIndexed() {
		t.Fatal("a level index exists before the first RandomBin")
	}
	for i := 0; i < 60; i++ {
		if ba, bb := a.RandomBin(), b.RandomBin(); ba != bb {
			t.Fatalf("departure %d: bins %d and %d", i, ba, bb)
		} else {
			a.RemoveBall(ba)
			b.RemoveBall(bb)
		}
		a.Step()
		b.Step()
		a.tallyNull()
		b.tallyNull()
		var ea, eb persist.Enc
		a.EncodeState(&ea)
		b.EncodeState(&eb)
		if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
			t.Fatalf("departure %d: resumed engine encodes differently", i)
		}
	}
}

// TestGraphJumpDecodeRejectsStrictIndex checks a graph engine refuses a
// payload whose level index has the strict tie gap with a typed
// ErrCorrupt: a graph engine's index, once built, is the plain one.
func TestGraphJumpDecodeRejectsStrictIndex(t *testing.T) {
	v := loadvec.Vector{5, 0, 3, 3, 1, 0, 2, 9}
	g := graphs.Ring{Vertices: len(v)}
	e := NewGraphJumpEngine(v, g, rng.New(1))
	e.Cfg().EnableStrictLevelIndex()
	var enc persist.Enc
	e.EncodeState(&enc)
	restored := NewGraphJumpEngine(make(loadvec.Vector, len(v)), g, rng.New(0))
	if err := restored.DecodeState(persist.NewDec(enc.Bytes())); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("strict index on a graph engine: err = %v, want ErrCorrupt", err)
	}
}

// TestGraphJumpEnginePanics pins the constructor's rejection branches.
func TestGraphJumpEnginePanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("nil rng", func() {
		NewGraphJumpEngine(make(loadvec.Vector, 4), graphs.Ring{Vertices: 4}, nil)
	})
	expectPanic("nil topology", func() {
		NewGraphJumpEngine(make(loadvec.Vector, 4), nil, rng.New(1))
	})
	expectPanic("size mismatch", func() {
		NewGraphJumpEngine(make(loadvec.Vector, 4), graphs.Ring{Vertices: 8}, rng.New(1))
	})
	expectPanic("strict nil rng", func() {
		NewStrictJumpEngine(make(loadvec.Vector, 4), nil)
	})
}

// benchGraphIndex returns a graph index over a Δ-regular topology on
// 4096 bins (Δ = 4 torus, Δ = 8 expander, Δ = 16 random regular) with
// uniform random loads in [0, 8], so a fair share of slots is admissible.
// The configuration carries no level index: the benchmarks below time the
// graph index, and a Config move is O(1) bookkeeping on top.
func benchGraphIndex(b *testing.B, deg int) (*loadvec.Config, *graphIndex) {
	var g Topology
	switch deg {
	case 4:
		g = graphs.Torus2D{Side: 64}
	case 8:
		g = graphs.Expander{Side: 64}
	default:
		rr, err := graphs.NewRandomRegularSeed(4096, deg, 1)
		if err != nil {
			b.Fatal(err)
		}
		g = rr
	}
	r := rng.New(uint64(deg))
	v := make(loadvec.Vector, g.N())
	for i := range v {
		v[i] = r.Intn(9)
	}
	cfg := loadvec.NewConfig(v)
	return cfg, newGraphIndex(cfg, g)
}

// graphIndexBatch is the number of index operations one benchmark
// iteration performs, so that even bench.sh's 3-iteration record times
// thousands of operations; ns/update and ns/sample are the per-operation
// costs.
const graphIndexBatch = 1024

// BenchmarkGraphIndexUpdate measures one graph-index update after a move
// along a slot: each iteration moves a ball across each of
// graphIndexBatch pre-drawn (bin, neighbor) pairs and straight back, two
// updates per pair, so the loads stay stationary.
func BenchmarkGraphIndexUpdate(b *testing.B) {
	for _, deg := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("deg=%d", deg), func(b *testing.B) {
			cfg, gx := benchGraphIndex(b, deg)
			r := rng.New(9)
			pairs := make([][2]int, 0, graphIndexBatch)
			for len(pairs) < cap(pairs) {
				src := r.Intn(cfg.N())
				if dst := int(gx.slots(src)[r.Intn(deg)]); dst != src && cfg.Load(src) > 0 {
					pairs = append(pairs, [2]int{src, dst})
				}
			}
			pass := func() {
				for _, p := range pairs {
					cfg.Move(p[0], p[1])
					gx.update(cfg, p[0], p[1])
					cfg.Move(p[1], p[0])
					gx.update(cfg, p[1], p[0])
				}
			}
			pass() // untimed: the Config histogram grows to its steady size
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*graphIndexBatch*b.N), "ns/update")
		})
	}
}

// BenchmarkGraphIndexSample measures one jump-chain move draw — a
// Fenwick descent plus a scan of the source's Δ slots — on a fixed
// configuration, graphIndexBatch draws per iteration.
func BenchmarkGraphIndexSample(b *testing.B) {
	for _, deg := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("deg=%d", deg), func(b *testing.B) {
			_, gx := benchGraphIndex(b, deg)
			r := rng.New(10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < graphIndexBatch; k++ {
					graphSampleSink, _ = gx.sample(r)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(graphIndexBatch*b.N), "ns/sample")
		})
	}
}

var graphSampleSink int
