// Package rng implements a small, fast, deterministic pseudo-random
// number generator (xoshiro256** seeded via splitmix64).
//
// Measurement sampling and the randomized test-input generators need
// streams that are reproducible across runs and cheap to fork per
// goroutine; the stdlib math/rand global source is neither. xoshiro256**
// passes BigCrush and needs only four uint64 words of state.
//
// New(seed) returns a Source; the draw methods mirror math/rand (Uint64,
// Intn, Float64, Perm) plus NormFloat64/Complex for Haar-ish random state
// vectors and Uint64n via Lemire rejection for unbiased bounded draws.
// A Source is not safe for concurrent use: parallel workers each get
// their own, seeded from draws of one master stream taken before any
// worker starts, which keeps them deterministic regardless of scheduling.
package rng
