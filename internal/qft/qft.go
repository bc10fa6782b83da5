// Package qft generates the quantum Fourier transform circuit — the
// O(n^2) Hadamard + conditional-phase-shift network of Section 3.2 that a
// simulator must execute gate by gate — together with the entangling
// benchmark circuit of Figure 6. The emulated path (the classical FFT) is
// package recognize's qft op; tests assert the two produce identical
// states.
package qft

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// Circuit returns the full QFT circuit on n qubits implementing the
// paper's Eq. 4 exactly (including the final qubit-reversal swaps):
//
//	a_l  <-  2^{-n/2} sum_k a_k exp(2 pi i k l / 2^n).
//
// It contains n Hadamards, n(n-1)/2 conditional phase shifts and
// floor(n/2) swaps.
// The whole circuit is annotated as a "qft" region (args: position 0,
// width n) so the emulation dispatcher can replace it with the FFT.
func Circuit(n uint) *circuit.Circuit { return Field(n, 0, n, true) }

// CircuitNoSwap returns the QFT without the final reversal swaps: the
// output appears with qubits in bit-reversed order. Algorithms that can
// absorb the reversal into subsequent indexing (as Shor's does) use this
// cheaper variant.
// The circuit carries a "qft-noswap" region annotation (args: position 0,
// width n): the QFT composed with the bit-reversal permutation.
func CircuitNoSwap(n uint) *circuit.Circuit { return Field(n, 0, n, false) }

// Field returns the QFT circuit of the qubit field [pos, pos+w) of an
// n-qubit register, with its reversal swaps or without: Circuit's gates
// moved up by pos, annotated "qft" or "qft-noswap" with args (pos, w).
func Field(n, pos, w uint, swaps bool) *circuit.Circuit {
	c := circuit.New(n)
	for i := int(w) - 1; i >= 0; i-- {
		c.Append(gates.H(pos + uint(i)))
		for j := i - 1; j >= 0; j-- {
			theta := math.Pi / float64(uint64(1)<<uint(i-j))
			c.Append(gates.CR(pos+uint(j), pos+uint(i), theta))
		}
	}
	name := "qft-noswap"
	if swaps {
		for k := uint(0); k < w/2; k++ {
			c.Append(gates.Swap(pos+k, pos+w-1-k)...)
		}
		name = "qft"
	}
	c.Annotate(circuit.Region{Name: name, Args: []uint64{uint64(pos), uint64(w)}, Lo: 0, Hi: c.Len()})
	return c
}

// InverseCircuit returns the inverse QFT circuit.
func InverseCircuit(n uint) *circuit.Circuit {
	return Circuit(n).Dagger()
}

// Entangler returns the entangling benchmark operation of Figure 6: a
// Hadamard on qubit 0 followed by a CNOT from qubit 0 onto every other
// qubit, preparing the n-qubit GHZ state from |0...0>.
func Entangler(n uint) *circuit.Circuit {
	c := circuit.New(n)
	c.Append(gates.H(0))
	for q := uint(1); q < n; q++ {
		c.Append(gates.CNOT(0, q))
	}
	return c
}
