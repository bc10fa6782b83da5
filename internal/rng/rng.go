package rng

import (
	"math"
	"math/bits"
)

// Source is a xoshiro256** generator. The zero value is invalid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded deterministically from seed; see Seed.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed restarts src as the stream New(seed) returns, in place — a loop
// that runs one stream per item reuses one Source. The state comes from
// splitmix64, which guarantees the four words are well mixed even for
// small seeds.
func (src *Source) Seed(seed uint64) {
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (src *Source) Uint64() uint64 {
	result := rotl(src.s[1]*5, 7) * 9
	t := src.s[1] << 17
	src.s[2] ^= src.s[0]
	src.s[3] ^= src.s[1]
	src.s[1] ^= src.s[2]
	src.s[0] ^= src.s[3]
	src.s[2] ^= t
	src.s[3] = rotl(src.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (src *Source) Float64() float64 {
	return float64(src.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (src *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(src.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (src *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	threshold := -n % n
	for {
		hi, lo := bits.Mul64(src.Uint64(), n)
		if lo >= threshold {
			return hi
		}
	}
}

// NormFloat64 returns a standard normal variate via the Box-Muller
// transform. Two uniforms per call keeps the generator branch-free.
func (src *Source) NormFloat64() float64 {
	u1 := src.Float64()
	for u1 == 0 {
		u1 = src.Float64()
	}
	u2 := src.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Complex returns a complex128 with independent standard-normal real and
// imaginary parts; normalising a vector of these yields a Haar-ish random
// quantum state, which the property tests use as generic input.
func (src *Source) Complex() complex128 {
	return complex(src.NormFloat64(), src.NormFloat64())
}

// Perm returns a uniform random permutation of [0, n) via Fisher-Yates.
// Test generators use it to pick distinct random qubits.
func (src *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork returns a new Source whose stream is statistically independent of
// src. Each parallel worker gets its own fork so sampling remains
// deterministic regardless of scheduling.
func (src *Source) Fork() *Source {
	return New(src.Uint64() ^ 0xd1b54a32d192ed03)
}
