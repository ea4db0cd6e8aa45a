// Package graphs provides the network topologies for the §7 extension of
// the paper ("analyze the protocol in network topologies other than the
// complete graph") and the mixing-time estimation used to relate the
// measured balancing times to the τ_mix·ln(m) behaviour that [6] proves
// for threshold protocols on graphs.
//
// A ball in bin i samples its destination uniformly from the neighborhood
// of i (for the complete topology: from all bins, matching §3 exactly).
package graphs

import (
	"fmt"
	"math"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// Graph is a vertex-transitive-friendly adjacency interface: bins are
// vertices, and a ball in bin i may sample destinations among i's
// neighbors.
type Graph interface {
	// N returns the number of vertices (bins).
	N() int
	// Degree returns the number of neighbors of vertex i.
	Degree(i int) int
	// Neighbor returns the k-th neighbor of vertex i, 0 ≤ k < Degree(i).
	Neighbor(i, k int) int
	// Name identifies the topology.
	Name() string
}

// Complete is the paper's original setting: every bin samples uniformly
// from all n bins (including itself; a self-sample never satisfies the
// move rule, exactly as in §3).
type Complete struct{ Vertices int }

// N implements Graph.
func (g Complete) N() int { return g.Vertices }

// Degree implements Graph.
func (g Complete) Degree(int) int { return g.Vertices }

// Neighbor implements Graph.
func (g Complete) Neighbor(_, k int) int { return k }

// Name implements Graph.
func (g Complete) Name() string { return "complete" }

// Ring is the n-cycle: neighbors i−1 and i+1 (mod n).
type Ring struct{ Vertices int }

// N implements Graph.
func (g Ring) N() int { return g.Vertices }

// Degree implements Graph.
func (g Ring) Degree(int) int { return 2 }

// Neighbor implements Graph.
func (g Ring) Neighbor(i, k int) int {
	if k == 0 {
		return (i + 1) % g.Vertices
	}
	return (i - 1 + g.Vertices) % g.Vertices
}

// Name implements Graph.
func (g Ring) Name() string { return "ring" }

// Torus2D is the √n×√n torus (4 neighbors). Side must satisfy
// Side·Side = n.
type Torus2D struct{ Side int }

// N implements Graph.
func (g Torus2D) N() int { return g.Side * g.Side }

// Degree implements Graph.
func (g Torus2D) Degree(int) int { return 4 }

// Neighbor implements Graph.
func (g Torus2D) Neighbor(i, k int) int {
	s := g.Side
	row, col := i/s, i%s
	switch k {
	case 0:
		col = (col + 1) % s
	case 1:
		col = (col - 1 + s) % s
	case 2:
		row = (row + 1) % s
	default:
		row = (row - 1 + s) % s
	}
	return row*s + col
}

// Name implements Graph.
func (g Torus2D) Name() string { return "torus" }

// Hypercube is the d-dimensional hypercube on n = 2^d vertices.
type Hypercube struct{ Dim int }

// N implements Graph.
func (g Hypercube) N() int { return 1 << g.Dim }

// Degree implements Graph.
func (g Hypercube) Degree(int) int { return g.Dim }

// Neighbor implements Graph.
func (g Hypercube) Neighbor(i, k int) int { return i ^ (1 << k) }

// Name implements Graph.
func (g Hypercube) Name() string { return "hypercube" }

// Expander is the Margulis–Gabber–Galil expander: an 8-regular multigraph
// on the Side×Side torus of vertices (x, y), with neighbor slots
//
//	(x±2y, y), (x±(2y+1), y), (x, y±2x), (x, y±(2x+1))   (mod Side)
//
// Its second eigenvalue is bounded away from 1 uniformly in n, so the
// spectral gap — and with it the RLS mixing behaviour — stays Θ(1) as the
// graph grows, unlike ring (Θ(1/n²)) or torus (Θ(1/n)). The slot list is
// symmetric as a multiset (the +shift slot at (x, y) is matched by the
// −shift slot at the image vertex), so GraphRLS and the jump engines see
// a well-defined undirected multigraph; coincidences like x = 0 produce
// parallel edges and self-loops, which the slot semantics of the engines
// handle exactly (a self-slot simply never admits a move).
//
// The degree is constant (8) but the family is the repo's stand-in for
// "dense mixing at scale": A8 gates the graph jump engine on it as one
// of its two dense families.
type Expander struct{ Side int }

// N implements Graph.
func (g Expander) N() int { return g.Side * g.Side }

// Degree implements Graph.
func (g Expander) Degree(int) int { return 8 }

// Neighbor implements Graph.
func (g Expander) Neighbor(i, k int) int {
	s := g.Side
	x, y := i/s, i%s
	mod := func(v int) int { return ((v % s) + s) % s }
	switch k {
	case 0:
		x = mod(x + 2*y)
	case 1:
		x = mod(x - 2*y)
	case 2:
		x = mod(x + 2*y + 1)
	case 3:
		x = mod(x - 2*y - 1)
	case 4:
		y = mod(y + 2*x)
	case 5:
		y = mod(y - 2*x)
	case 6:
		y = mod(y + 2*x + 1)
	default:
		y = mod(y - 2*x - 1)
	}
	return x*s + y
}

// Name implements Graph.
func (g Expander) Name() string { return "expander" }

// RandomRegular is a random d-regular multigraph built by the pairing
// (configuration) model: d·n half-edges matched uniformly; self-loops are
// re-rolled a bounded number of times. Multi-edges are kept (they only
// reweight sampling slightly), matching standard practice.
type RandomRegular struct {
	adj  []int32 // flat slot lists: adj[v·d+k] is vertex v's k-th neighbor
	n, d int
	name string
}

// NewRandomRegular builds a random d-regular multigraph on n vertices.
// n·d must be even.
func NewRandomRegular(n, d int, r *rng.RNG) (*RandomRegular, error) {
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graphs: n·d must be even (n=%d, d=%d)", n, d)
	}
	if d < 1 || n < 2 {
		return nil, fmt.Errorf("graphs: need d ≥ 1 and n ≥ 2")
	}
	// Pair half-edges; repair self-loops by switching. A dense matching
	// has ~d/2 expected self-loops, so rejecting whole matchings would
	// essentially never terminate for superconstant d — instead each bad
	// pair trades its second stub with a uniformly random pair's, which
	// fixes it with probability 1−O(d/n·d) per pass and converges in a
	// handful of passes. A loop-free shuffle draws nothing beyond the
	// shuffle itself, so sparse constructions (and their golden
	// adjacency pins) are byte-identical to the old rejection scheme.
	stubs := make([]int32, n*d)
	for attempt := 0; attempt < 100; attempt++ {
		for i := range stubs {
			stubs[i] = int32(i / d)
		}
		// Fisher–Yates, drawing exactly as rng.Shuffle does.
		for i := len(stubs) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			stubs[i], stubs[j] = stubs[j], stubs[i]
		}
		clean := false
		for pass := 0; pass < 50 && !clean; pass++ {
			clean = true
			for i := 0; i < len(stubs); i += 2 {
				if stubs[i] == stubs[i+1] {
					clean = false
					j := 2 * r.Intn(len(stubs)/2)
					stubs[i+1], stubs[j+1] = stubs[j+1], stubs[i+1]
				}
			}
		}
		if clean {
			// Each pair appends to both endpoints' slot lists in pair
			// order; fill[v] is v's next free slot.
			adj := make([]int32, n*d)
			fill := make([]int32, n)
			for i := 0; i < len(stubs); i += 2 {
				a, b := stubs[i], stubs[i+1]
				adj[int(a)*d+int(fill[a])] = b
				fill[a]++
				adj[int(b)*d+int(fill[b])] = a
				fill[b]++
			}
			return &RandomRegular{adj: adj, n: n, d: d, name: fmt.Sprintf("random-%d-regular", d)}, nil
		}
	}
	return nil, fmt.Errorf("graphs: failed to build loop-free matching")
}

// NewRandomRegularSeed builds a random d-regular multigraph from a
// dedicated RNG stream derived from seed alone. Two calls with equal
// (n, d, seed) yield identical adjacency — the construction consumes no
// caller-owned randomness, so a simulation stream is unaffected by
// whether its topology was built inline or restored from a snapshot. The
// determinism is load-bearing for persistence: root snapshots record only
// (n, d, seed) and rebuild the adjacency on resume (graph_test.go pins a
// golden adjacency hash against construction-order drift).
func NewRandomRegularSeed(n, d int, seed uint64) (*RandomRegular, error) {
	return NewRandomRegular(n, d, rng.New(seed))
}

// N implements Graph.
func (g *RandomRegular) N() int { return g.n }

// Degree implements Graph.
func (g *RandomRegular) Degree(int) int { return g.d }

// Neighbor implements Graph.
func (g *RandomRegular) Neighbor(i, k int) int { return int(g.adj[i*g.d+k]) }

// Name implements Graph.
func (g *RandomRegular) Name() string { return g.name }

// SpectralGap estimates 1 − λ₂ of the lazy random-walk transition matrix
// P_lazy = (I + P)/2 (laziness removes periodicity, e.g. on even rings)
// by power iteration on the space orthogonal to the uniform vector. The
// estimated mixing time is ln(n)/gap, the standard τ_mix ≈ ln(n)/(1−λ₂)
// heuristic used to order topologies in experiment X3.
func SpectralGap(g Graph, iters int) float64 {
	n := g.N()
	if n < 2 {
		return 1
	}
	// Deterministic pseudo-random start vector, orthogonalized.
	x := make([]float64, n)
	r := rng.New(12345)
	for i := range x {
		x[i] = r.Float64() - 0.5
	}
	y := make([]float64, n)
	var lambda float64
	for it := 0; it < iters; it++ {
		// Remove the uniform component.
		mean := 0.0
		for _, v := range x {
			mean += v
		}
		mean /= float64(n)
		norm := 0.0
		for i := range x {
			x[i] -= mean
			norm += x[i] * x[i]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 1
		}
		for i := range x {
			x[i] /= norm
		}
		// y = P_lazy x.
		for i := range y {
			sum := 0.0
			d := g.Degree(i)
			for k := 0; k < d; k++ {
				sum += x[g.Neighbor(i, k)]
			}
			y[i] = 0.5*x[i] + 0.5*sum/float64(d)
		}
		// Rayleigh quotient estimate of λ₂.
		dot := 0.0
		for i := range x {
			dot += x[i] * y[i]
		}
		lambda = dot
		x, y = y, x
	}
	return 1 - lambda
}

// MixingTimeEstimate returns ln(n)/SpectralGap, the τ_mix proxy for
// experiment X3.
func MixingTimeEstimate(g Graph) float64 {
	gap := SpectralGap(g, 300)
	if gap <= 0 {
		return math.Inf(1)
	}
	return math.Log(float64(g.N())) / gap
}

// GraphRLS is the §7 extension of RLS to a topology: a ball in bin i
// samples a destination uniformly among i's neighbors and moves iff
// ℓ_i ≥ ℓ_dst + 1.
type GraphRLS struct{ G Graph }

// Decide implements sim.Mover.
func (g GraphRLS) Decide(cfg *loadvec.Config, src int, r *rng.RNG) (int, bool) {
	dst := g.G.Neighbor(src, r.Intn(g.G.Degree(src)))
	return dst, cfg.Load(src) >= cfg.Load(dst)+1
}
