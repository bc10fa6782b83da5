package qpe

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/ising"
	"repro/internal/rng"
)

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
	dist := Coherent(c, psi, 3)
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
	simDist := Coherent(circ, psi, b)
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

func TestIterativeExactPhase(t *testing.T) {
	// With an exactly representable phase the iterative QPE must return it
	// deterministically, run after run.
	theta := 0.3125 // 0.0101 binary (4 bits)
	c := phaseCircuit(theta)
	psi := []complex128{0, 1}
	src := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		res := Iterative(c, psi, 4, src)
		if math.Abs(res.Phase-theta) > 1e-12 {
			t.Fatalf("trial %d: phase %v, want %v", trial, res.Phase, theta)
		}
	}
}

func TestIterativeStatisticalPhase(t *testing.T) {
	// Inexact phase: the 3-bit estimate must land on one of the two
	// neighbouring grid points most of the time.
	theta := 0.4 // between 3/8 and 4/8
	c := phaseCircuit(theta)
	psi := []complex128{0, 1}
	src := rng.New(11)
	good := 0
	const runs = 200
	for i := 0; i < runs; i++ {
		res := Iterative(c, psi, 3, src)
		if math.Abs(res.Phase-0.375) < 1e-12 || math.Abs(res.Phase-0.5) < 1e-12 {
			good++
		}
	}
	// The two nearest grid points carry > 80% of the mass for b=3.
	if good < runs*60/100 {
		t.Errorf("only %d/%d runs near the true phase", good, runs)
	}
}

func TestIterativeMatchesCoherentDistribution(t *testing.T) {
	// Histogram of iterative runs must match the coherent distribution.
	theta := 0.23
	c := phaseCircuit(theta)
	psi := []complex128{0, 1}
	b := uint(3)
	dist := Coherent(c, psi, b)
	src := rng.New(13)
	const runs = 3000
	counts := make([]float64, 1<<b)
	for i := 0; i < runs; i++ {
		res := Iterative(c, psi, b, src)
		counts[uint64(res.Phase*float64(uint64(1)<<b)+0.5)%uint64(1<<b)]++
	}
	for y := range dist {
		got := counts[y] / runs
		tol := 4*math.Sqrt(dist[y]*(1-dist[y])/runs) + 5e-3
		if math.Abs(got-dist[y]) > tol {
			t.Errorf("readout %d: sampled %v, coherent %v", y, got, dist[y])
		}
	}
}

func TestPrepareSystem(t *testing.T) {
	psi := []complex128{0, 1, 0, 0}
	st := PrepareSystem(2, 3, psi)
	if st.NumQubits() != 5 {
		t.Fatalf("width %d", st.NumQubits())
	}
	if st.Amplitude(1) != 1 {
		t.Fatal("system state misplaced")
	}
}
