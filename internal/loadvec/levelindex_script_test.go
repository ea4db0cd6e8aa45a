package loadvec

import (
	"bytes"
	"testing"

	"repro/internal/rng"
)

// naiveMovePair redraws SampleMovePair's pair from a plain scan of the
// index's level segments, consuming the same three draws in the same
// order: the source level by linear search over s[v] =
// v·count[v]·C(v−gap), a uniform bin within it, then the destination as
// the u-th eligible bin in level order. The segments are cut from the
// permutation by the histogram of the loads, not by the index's own
// prefix counts. Equal streams must give equal pairs.
func naiveMovePair(c *Config, r *rng.RNG) (src, dst int) {
	x := c.idx
	count := make([]int64, x.size)
	for _, l := range c.Loads() {
		count[l]++
	}
	segs := make([][]int32, x.size)
	cum := make([]int64, x.size)
	var acc int64
	for v, cn := range count {
		segs[v] = x.order[acc : acc+cn]
		acc += cn
		cum[v] = acc
	}
	elig := func(v int) int64 {
		if v-x.gap < 0 {
			return 0
		}
		return cum[v-x.gap]
	}
	var total int64
	for v, seg := range segs {
		total += int64(v) * int64(len(seg)) * elig(v)
	}
	u := r.Int63n(total)
	v := 0
	for ; ; v++ {
		s := int64(v) * int64(len(segs[v])) * elig(v)
		if u < s {
			break
		}
		u -= s
	}
	src = int(segs[v][r.Intn(len(segs[v]))])
	u = r.Int63n(elig(v))
	w := 0
	for ; u >= int64(len(segs[w])); w++ {
		u -= int64(len(segs[w]))
	}
	return src, int(segs[w][u])
}

// tieRules are the level index's tie rules: the plain and strict jump
// indexes.
var tieRules = []struct {
	name   string
	enable func(*Config)
}{
	{"plain", (*Config).EnableLevelIndex},
	{"strict", (*Config).EnableStrictLevelIndex},
}

// TestLevelIndexScriptProperty runs random scripts of jump-chain moves,
// churn and ball samples under both tie rules, from starts that pile
// most balls on one bin so the level range grows and shrinks; midway, a
// spike pushes one bin through three size classes of the range and
// drains it again. Config.Validate — the permutation and its segments,
// prefix counts, move weight and, once built, the ball tree — runs after
// every op. Two clones run each script: `eager` samples
// a ball up front and at every ball-sample op, `lazy` only after the
// script; both must then draw identical SampleBallBin sequences and
// encode to identical bytes. Every SampleMovePair is also checked
// against naiveMovePair on an equal stream.
func TestLevelIndexScriptProperty(t *testing.T) {
	r := rng.New(2024)
	for _, sh := range tieRules {
		for trial := 0; trial < 12; trial++ {
			n := 2 + r.Intn(24)
			v := make(Vector, n)
			for i := range v {
				v[i] = r.Intn(3)
			}
			v[r.Intn(n)] += 4*n + r.Intn(8*n)
			base := NewConfig(v)
			sh.enable(base)
			eager, lazy := base.Clone(), base.Clone()
			eager.SampleBallBin(rng.New(r.Uint64()))
			check := func(step int, op string) {
				t.Helper()
				for name, c := range map[string]*Config{"eager": eager, "lazy": lazy} {
					if err := c.Validate(); err != nil {
						t.Fatalf("%s trial %d step %d (%s) %s: %v", sh.name, trial, step, op, name, err)
					}
				}
				if !eager.Loads().Equal(lazy.Loads()) {
					t.Fatalf("%s trial %d step %d (%s): clones diverged", sh.name, trial, step, op)
				}
			}
			move := func(step int) {
				t.Helper()
				if eager.MoveWeight() == 0 {
					return
				}
				seed := r.Uint64()
				src, dst := eager.SampleMovePair(rng.New(seed))
				ls, ld := lazy.SampleMovePair(rng.New(seed))
				ns, nd := naiveMovePair(eager, rng.New(seed))
				if src != ls || dst != ld || src != ns || dst != nd {
					t.Fatalf("%s trial %d step %d: pairs eager (%d,%d) lazy (%d,%d) naive (%d,%d)",
						sh.name, trial, step, src, dst, ls, ld, ns, nd)
				}
				eager.Move(src, dst)
				lazy.Move(src, dst)
			}
			// spike pushes one bin to twice the level range it starts
			// in, so the range grows through three size classes, then
			// drains it by alternating jump moves and departures from it
			// until the bin is back at its start load and the range has
			// shrunk again, checking after every op.
			spike := func(step int) {
				t.Helper()
				bin := r.Intn(n)
				start, top := eager.Load(bin), 2*eager.idx.size
				sizes := map[int]bool{eager.idx.size: true}
				for eager.Load(bin) < top {
					eager.AddBall(bin)
					lazy.AddBall(bin)
					sizes[eager.idx.size] = true
					check(step, "spike push")
				}
				peak := eager.idx.size
				for i := 0; eager.Load(bin) > start; i++ {
					if i%2 == 0 {
						move(step)
						check(step, "spike move")
						continue
					}
					eager.RemoveBall(bin)
					lazy.RemoveBall(bin)
					check(step, "spike drain")
				}
				if len(sizes) < 3 || eager.idx.size >= peak {
					t.Fatalf("%s trial %d step %d: spike visited sizes %v and ended at %d (peak %d)",
						sh.name, trial, step, sizes, eager.idx.size, peak)
				}
			}
			check(-1, "start")
			for step := 0; step < 500; step++ {
				if step == 250 {
					spike(step)
				}
				var op string
				switch k := r.Intn(8); {
				case k < 4:
					op = "move"
					move(step)
				case k < 5:
					op = "add"
					bin := r.Intn(n)
					eager.AddBall(bin)
					lazy.AddBall(bin)
				case k < 7:
					op = "remove"
					if eager.M() > 1 {
						bin := eager.SampleBallBin(rng.New(r.Uint64()))
						eager.RemoveBall(bin)
						lazy.RemoveBall(bin)
					}
				default:
					op = "sample"
					bin := eager.SampleBallBin(rng.New(r.Uint64()))
					if eager.Load(bin) == 0 {
						t.Fatalf("%s trial %d step %d: sampled empty bin %d", sh.name, trial, step, bin)
					}
				}
				check(step, op)
			}
			if lazy.idx.bal != nil {
				t.Fatalf("%s trial %d: a clone that never sampled a ball built the ball tree", sh.name, trial)
			}
			seed := r.Uint64()
			re, rl := rng.New(seed), rng.New(seed)
			for i := 0; i < 64; i++ {
				if a, b := eager.SampleBallBin(re), lazy.SampleBallBin(rl); a != b {
					t.Fatalf("%s trial %d draw %d: SampleBallBin eager %d, lazy %d", sh.name, trial, i, a, b)
				}
			}
			check(500, "end")
			if !bytes.Equal(encodeConfig(eager), encodeConfig(lazy)) {
				t.Fatalf("%s trial %d: clones encode differently", sh.name, trial)
			}
		}
	}
}

// benchDenseConfig is the dense start the level-index benchmarks run
// from: n = 4096 bins holding m = 64n balls placed by one choice, so
// moves cross a few levels around the average as in a dense jump run.
func benchDenseConfig() Vector {
	return OneChoice().Generate(4096, 64*4096, rng.New(3))
}

// BenchmarkLevelIndexMove times one jump-chain step of the level index —
// SampleMovePair then Move — under each tie rule. The chain runs on from
// iteration to iteration and restarts from the dense start (outside the
// timer) when it balances. Each iteration times 4096 steps; ns/op is per
// step.
func BenchmarkLevelIndexMove(b *testing.B) {
	for _, sh := range tieRules {
		b.Run(sh.name, func(b *testing.B) {
			start := NewConfig(benchDenseConfig())
			sh.enable(start)
			c := start.Clone()
			r := rng.New(1)
			const batch = 4096
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					if c.MoveWeight() == 0 {
						b.StopTimer()
						c = start.Clone()
						b.StartTimer()
					}
					c.Move(c.SampleMovePair(r))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/op")
		})
	}
}

// BenchmarkLevelIndexSampleBall times SampleBallBin under each tie rule, with
// the ball tree already built; 4096 draws per iteration, ns/op per draw.
func BenchmarkLevelIndexSampleBall(b *testing.B) {
	for _, sh := range tieRules {
		b.Run(sh.name, func(b *testing.B) {
			c := NewConfig(benchDenseConfig())
			sh.enable(c)
			r := rng.New(1)
			c.SampleBallBin(r)
			const batch = 4096
			sink := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					sink += c.SampleBallBin(r)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/op")
			if sink < 0 {
				b.Fatal(sink)
			}
		})
	}
}

// BenchmarkLevelIndexChurn times AddBall and RemoveBall on the plain and
// strict level indexes from the dense start, with the ball tree built as
// a Session's churn finds it. Ops alternate an arrival at a uniform bin
// and a departure from a uniform non-empty bin, so m stays put; each
// iteration times 4096 ops, ns/op per op.
func BenchmarkLevelIndexChurn(b *testing.B) {
	for _, sh := range tieRules {
		b.Run(sh.name, func(b *testing.B) {
			c := NewConfig(benchDenseConfig())
			sh.enable(c)
			r := rng.New(1)
			c.SampleBallBin(r)
			n := c.N()
			const batch = 4096
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch/2; j++ {
					c.AddBall(r.Intn(n))
					c.RemoveBall(randNonEmpty(c, r))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/op")
		})
	}
}
