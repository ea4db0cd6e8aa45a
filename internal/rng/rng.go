// Package rng provides a fast, splittable pseudo-random number generator
// and the distribution samplers used throughout the simulator.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64 so that any 64-bit seed yields a well-mixed initial state.
// Streams can be split deterministically with Split, which gives every
// replication of an experiment its own independent-looking stream while
// keeping the whole experiment reproducible from a single root seed.
//
// Only integer and float64 uniforms live in this file. The exponential
// and the normal are 256-layer ziggurat samplers (ziggurat.go) whose fast
// path evaluates no logarithm. Geometric and Erlang, the two draws the
// jump engine takes per move, build on the ziggurat exponential (dist.go,
// erlang.go); the other derived distributions (binomial, Poisson, Zipf)
// are in dist.go.
package rng

import "math/bits"

// RNG is a xoshiro256** generator. The zero value is not usable; create
// instances with New or Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances *x and returns the next splitmix64 output. It is the
// recommended seeding procedure for xoshiro generators: consecutive outputs
// are well distributed even for adversarial seeds such as 0.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	// xoshiro256** must not start in the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// State returns the generator's full 4-word xoshiro256** state. Restoring
// it with Restore reproduces the stream exactly from this point; split
// streams carry no extra position — each Split spawns an independent RNG
// whose own State captures it completely.
func (r *RNG) State() [4]uint64 { return [4]uint64{r.s0, r.s1, r.s2, r.s3} }

// Restore overwrites the generator state with a value previously obtained
// from State. The all-zero state (never produced by New or the xoshiro
// step) is mapped onto the same non-zero guard state New uses, so a
// restored generator can never wedge.
func (r *RNG) Restore(s [4]uint64) {
	r.s0, r.s1, r.s2, r.s3 = s[0], s[1], s[2], s[3]
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives a new, deterministically seeded generator from r, advancing
// r. Streams produced by successive Split calls are seeded with distinct
// xoshiro outputs re-expanded through splitmix64, which in practice gives
// non-overlapping, uncorrelated streams.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Int63n(int64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0. The full
// 64-bit range of the level-index move weights (up to m·n) goes through
// here; Intn shares the same draw, so both consume identical random bits.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	un := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, un)
		}
	}
	return int64(hi)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1), never exactly zero,
// suitable for sampling that takes a logarithm.
func (r *RNG) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) as a slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle applies a Fisher–Yates shuffle to n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
