package qpe

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/ising"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// coherent simulates the b-ancilla QPE of the unitary given by circ
// (acting on n system qubits) applied to input state psi, gate by gate,
// and returns the ancilla readout distribution: the gate-level oracle the
// emulated QPE is checked against. The ancillas occupy qubits [n, n+b);
// ancilla i controls U^(2^i), realised by 2^i repetitions of the
// controlled circuit, and the inverse QFT runs gate by gate.
func coherent(circ *circuit.Circuit, psi []complex128, b uint) []float64 {
	n := circ.NumQubits
	st := statevec.NewZero(n + b)
	amps := st.Amplitudes()
	copy(amps[:len(psi)], psi)
	for i := uint(0); i < b; i++ {
		st.ApplyGate(gates.H(n + i))
	}
	for i := uint(0); i < b; i++ {
		controlled := circ.Controlled(n + i)
		for r := uint64(0); r < uint64(1)<<i; r++ {
			controlled.Run(st)
		}
	}
	InverseQFTOn(n, b, n+b).Run(st)
	// Marginalise out the system register.
	dist := make([]float64, uint64(1)<<b)
	dim := uint64(1) << n
	for x := range dist {
		var acc float64
		for s := uint64(0); s < dim; s++ {
			a := amps[uint64(x)<<n|s]
			acc += real(a)*real(a) + imag(a)*imag(a)
		}
		dist[x] = acc
	}
	return dist
}

// phaseCircuit returns a 1-qubit circuit whose unitary is diag(1, e^{2 pi i
// theta}); |1> is an eigenvector with eigenphase theta.
func phaseCircuit(theta float64) *circuit.Circuit {
	c := circuit.New(1)
	c.Append(gates.Phase(0, 2*math.Pi*theta))
	return c
}

func TestCoherentExactPhase(t *testing.T) {
	theta := 0.625 // 0.101 binary
	c := phaseCircuit(theta)
	psi := []complex128{0, 1} // |1>
	dist := coherent(c, psi, 3)
	want := uint64(5) // 0.101 * 8
	for y, p := range dist {
		if uint64(y) == want {
			if p < 1-1e-9 {
				t.Errorf("P(%d) = %v, want 1", y, p)
			}
		} else if p > 1e-9 {
			t.Errorf("spurious probability %v at %d", p, y)
		}
	}
}

// TestCoherentMatchesEmulated cross-validates the gate-level simulated QPE
// against the emulated repeated-squaring QPE — the central consistency
// requirement behind Table 2: both must compute the same distribution.
func TestCoherentMatchesEmulated(t *testing.T) {
	n := uint(2)
	circ := ising.TrotterStep(n, ising.DefaultParams())
	u := DenseUnitary(circ)
	src := rng.New(42)
	psi := make([]complex128, 1<<n)
	var norm float64
	for i := range psi {
		psi[i] = src.Complex()
		norm += real(psi[i])*real(psi[i]) + imag(psi[i])*imag(psi[i])
	}
	s := complex(1/math.Sqrt(norm), 0)
	for i := range psi {
		psi[i] *= s
	}

	b := uint(4)
	simDist := coherent(circ, psi, b)
	est, err := QPE(u, psi, b, RepeatedSquaring)
	if err != nil {
		t.Fatal(err)
	}
	for y := range simDist {
		if math.Abs(simDist[y]-est.Distribution[y]) > 1e-8 {
			t.Fatalf("simulated vs emulated QPE differ at %d: %v vs %v",
				y, simDist[y], est.Distribution[y])
		}
	}
}
