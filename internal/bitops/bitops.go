// Package bitops provides the bit-manipulation primitives used to address
// amplitudes of an n-qubit state vector.
//
// Throughout the repository, basis states are indexed by uint64 integers
// whose bit k holds the value of qubit k (qubit 0 is the least significant
// bit). Applying a gate to qubit k means pairing amplitude indices that
// differ only in bit k; applying an m-qubit permutation means rewriting a
// contiguous field of bits. This package centralises those index
// computations so the state-vector kernels stay readable.
package bitops

import "math/bits"

// Mask returns a mask with the low n bits set. n must be in [0, 64].
func Mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// Bit reports the value of bit k of x as 0 or 1.
func Bit(x uint64, k uint) uint64 {
	return (x >> k) & 1
}

// SetBit returns x with bit k set to v (v must be 0 or 1).
func SetBit(x uint64, k uint, v uint64) uint64 {
	return (x &^ (uint64(1) << k)) | (v << k)
}

// InsertZeroBit spreads x so that a zero bit appears at position k and the
// bits at positions >= k shift up by one. It maps a (n-1)-bit counter to the
// n-bit index whose bit k is 0; ORing 1<<k yields the partner index. This is
// the core addressing step of every single-qubit gate kernel.
func InsertZeroBit(x uint64, k uint) uint64 {
	low := x & Mask(k)
	high := (x &^ Mask(k)) << 1
	return high | low
}

// InsertZeroBits inserts zero bits at each position in ks. Positions refer to
// the final index and must be strictly increasing.
func InsertZeroBits(x uint64, ks ...uint) uint64 {
	for _, k := range ks {
		x = InsertZeroBit(x, k)
	}
	return x
}

// DepositBits returns x with the field [pos, pos+width) replaced by the low
// width bits of v.
func DepositBits(x uint64, pos, width uint, v uint64) uint64 {
	m := Mask(width) << pos
	return (x &^ m) | ((v << pos) & m)
}

// ReverseBits reverses the low n bits of x (bits at or above n must be zero
// and remain zero). It is used by the FFT bit-reversal permutation and by
// the QFT, whose circuit produces the transform in bit-reversed order.
func ReverseBits(x uint64, n uint) uint64 {
	return bits.Reverse64(x) >> (64 - n)
}

// PopCount returns the number of set bits in x.
func PopCount(x uint64) int {
	return bits.OnesCount64(x)
}

// Log2 returns floor(log2(x)) for x > 0, and 0 for x == 0.
func Log2(x uint64) uint {
	if x == 0 {
		return 0
	}
	return uint(63 - bits.LeadingZeros64(x))
}

// IsPowerOfTwo reports whether x is a power of two (x > 0).
func IsPowerOfTwo(x uint64) bool {
	return x != 0 && x&(x-1) == 0
}

// ControlMask builds a mask with a bit set for each listed qubit.
func ControlMask(qubits []uint) uint64 {
	var m uint64
	for _, q := range qubits {
		m |= uint64(1) << q
	}
	return m
}
