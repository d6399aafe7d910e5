// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the reproduction.
//
// All simulations, trace generators and profile generators in this
// repository must be bit-reproducible across runs and platforms, so we
// implement our own generator (SplitMix64) rather than depending on the
// unspecified evolution of math/rand. SplitMix64 passes BigCrush, is
// trivially seedable, and supports cheap independent sub-streams, which we
// use to give every trace / profile / policy its own stream derived from a
// single experiment seed.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator (SplitMix64).
// The zero value is a valid generator seeded with 0. RNG is not safe for
// concurrent use; derive per-goroutine generators with Split.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split returns a new generator whose stream is a deterministic function of
// the receiver's seed and the given label, without disturbing the
// receiver's own stream position. It is used to give independent,
// reproducible sub-streams to sub-components (e.g. one stream per class in
// a variability profile).
func (r *RNG) Split(label uint64) *RNG {
	// Mix the label into a copy of the current state through two rounds of
	// the SplitMix64 finalizer so that adjacent labels yield uncorrelated
	// streams.
	z := r.state + 0x9e3779b97f4a7c15*(label+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &RNG{state: z ^ (z >> 31)}
}

// State returns the generator's current stream position. Together with
// Restore it lets engine snapshots round-trip a generator exactly: a
// generator restored from a captured state produces the same sequence
// the original would have from that point on.
func (r *RNG) State() uint64 { return r.state }

// Restore rewinds (or advances) the generator to a stream position
// previously captured with State.
func (r *RNG) Restore(state uint64) { r.state = state }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// Use the top 53 bits for a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1), using
// the Box–Muller transform. Deterministic given the stream position.
func (r *RNG) NormFloat64() float64 {
	// Draw until u1 is nonzero so the log is finite.
	var u1 float64
	for {
		u1 = r.Float64()
		if u1 > 0 {
			break
		}
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns a lognormal variate with the given parameters of the
// underlying normal distribution (mu, sigma).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + float64(sigma*r.NormFloat64()))
}

// Exp returns an exponential variate with the given rate (events per unit
// time). The mean of the returned value is 1/rate.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with rate <= 0")
	}
	var u float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	return -math.Log(u) / rate
}

// Shuffle pseudo-randomly permutes s in place (Fisher–Yates), drawing
// one Intn(i+1) per position i from len(s)-1 down to 1. It is a
// function rather than a method because Go methods cannot take type
// parameters; the direct swap is what keeps the placers' per-round
// shuffles free of a closure call per element.
func Shuffle[T any](r *RNG, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	Shuffle(r, p)
	return p
}

// Choice returns a pseudo-random index into weights, chosen with
// probability proportional to the weight. It panics if all weights are
// non-positive.
func (r *RNG) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: Choice with no positive weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("rng: unreachable")
}
