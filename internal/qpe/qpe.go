// Package qpe implements quantum phase estimation both ways Table 2
// compares: the emulated QPE of the paper's Section 3.3 (emulated.go: the
// dense operator, repeated squaring or eigendecomposition, the exact
// readout distribution) and the gate-level simulation paths it is measured
// against.
//
// Two textbook gate-level variants are provided:
//
//   - Coherent QPE: b ancilla qubits, controlled-U^(2^i) realised by
//     repeating the controlled circuit of U 2^i times, then an inverse QFT
//     on the ancillas. Simulation cost O(G * 2^(n+b) * 2^b / 2^b) ... i.e.
//     2^b - 1 circuit applications, each on a 2^(n+b) state.
//   - Iterative (Beauregard-style, the paper's Ref. [16]) QPE: a single
//     ancilla measured and reset b times, with classically fed-back phase
//     corrections; cost 2^b - 1 applications on a 2^(n+1) state.
package qpe

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// PrepareSystem loads psi (length 2^n) into the low n qubits of the
// (n+extra)-qubit register of a fresh state, ancillas in |0>.
func PrepareSystem(n, extra uint, psi []complex128) *statevec.State {
	st := statevec.NewZero(n + extra)
	amps := st.Amplitudes()
	copy(amps[:len(psi)], psi)
	return st
}

// Coherent simulates the b-ancilla QPE of the unitary given by circ
// (acting on n system qubits) applied to input state psi, gate by gate,
// and returns the ancilla readout distribution. The ancillas occupy qubits
// [n, n+b). The dominant cost is the 2^b - 1 controlled applications of
// the G-gate circuit, each O(2^(n+b)) — the simulator-side complexity the
// paper quotes as O(G 2^(n+b)).
func Coherent(circ *circuit.Circuit, psi []complex128, b uint) []float64 {
	n := circ.NumQubits
	st := PrepareSystem(n, b, psi)
	for i := uint(0); i < b; i++ {
		st.ApplyGate(gates.H(n + i))
	}
	// Controlled powers: ancilla i controls U^(2^i), realised by 2^i
	// repetitions of the controlled circuit.
	for i := uint(0); i < b; i++ {
		controlled := circ.Controlled(n + i)
		reps := uint64(1) << i
		for r := uint64(0); r < reps; r++ {
			controlled.Run(st)
		}
	}
	// Inverse QFT on the ancilla block, simulated gate by gate. The
	// ancilla-local QFT circuit is built on the ancilla indices directly.
	InverseQFTOn(n, b, n+b).Run(st)
	// Marginalise out the system register.
	dist := make([]float64, uint64(1)<<b)
	dim := uint64(1) << n
	amps := st.Amplitudes()
	for x := uint64(0); x < uint64(1)<<b; x++ {
		var acc float64
		for s := uint64(0); s < dim; s++ {
			a := amps[x<<n|s]
			acc += real(a)*real(a) + imag(a)*imag(a)
		}
		dist[x] = acc
	}
	return dist
}

// InverseQFTOn builds the inverse QFT circuit acting on the qubit field
// [base, base+b) of a width-total register. The circuit carries the
// field's "iqft" region annotation (inherited through Dagger), so an
// emulating backend lowers it to the FFT.
func InverseQFTOn(base, b, total uint) *circuit.Circuit {
	c := circuit.New(total)
	// Forward QFT on the field, then dagger the whole thing.
	fw := circuit.New(total)
	for i := int(b) - 1; i >= 0; i-- {
		fw.Append(gates.H(base + uint(i)))
		for j := i - 1; j >= 0; j-- {
			theta := math.Pi / float64(uint64(1)<<uint(i-j))
			fw.Append(gates.CR(base+uint(j), base+uint(i), theta))
		}
	}
	for k := uint(0); k < b/2; k++ {
		fw.Append(gates.Swap(base+k, base+b-1-k)...)
	}
	fw.Annotate(circuit.Region{Name: "qft", Args: []uint64{uint64(base), uint64(b)},
		Lo: 0, Hi: fw.Len()})
	c.Extend(fw.Dagger())
	return c
}

// IterativeResult reports one run of the measured iterative QPE.
type IterativeResult struct {
	// Phase is the b-bit phase estimate in [0, 1).
	Phase float64
	// Bits holds the measured bits; Bits[j] carries weight 2^{-(j+1)},
	// i.e. most significant first. Bits are measured in reverse order
	// (least significant first), as the feedback requires.
	Bits []uint64
}

// Iterative simulates the one-ancilla iterative QPE (the paper's Ref. [16]
// uses the same semiclassical trick): bits are measured from least
// precision to most, with the accumulated estimate fed back as an Rz
// correction before each Hadamard-basis readout. One run yields one b-bit
// sample, exactly like hardware.
func Iterative(circ *circuit.Circuit, psi []complex128, b uint, src *rng.Source) IterativeResult {
	n := circ.NumQubits
	anc := n // single ancilla qubit index
	st := PrepareSystem(n, 1, psi)
	controlled := circ.Controlled(anc)

	bits := make([]uint64, b)
	phi := 0.0 // accumulated phase estimate of the lower bits
	for j := int(b) - 1; j >= 0; j-- {
		st.ApplyGate(gates.H(anc))
		reps := uint64(1) << uint(j)
		for r := uint64(0); r < reps; r++ {
			controlled.Run(st)
		}
		// Feedback: rotate out the contribution of already-measured bits.
		if phi != 0 {
			st.ApplyGate(gates.Phase(anc, -2*math.Pi*phi*float64(reps)))
		}
		st.ApplyGate(gates.H(anc))
		bit := st.Measure(anc, src)
		bits[j] = bit
		phi += float64(bit) / float64(reps*2)
		if bit == 1 {
			// Reset the ancilla to |0> for the next round.
			st.ApplyGate(gates.X(anc))
		}
	}
	return IterativeResult{Phase: phi, Bits: bits}
}
