// Ising: the Table 2 workload end to end. The time-evolution unitary of a
// 1-D transverse-field Ising chain is phase-estimated three ways — the
// gate-level simulated coherent QPE network (built explicitly and run
// through a repro.Open backend), the emulated repeated-squaring QPE, and
// the emulated eigendecomposition QPE — and all three readout
// distributions are compared, along with their run times.
package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"repro"
	"repro/internal/gates"
	"repro/internal/ising"
	"repro/internal/linalg"
	"repro/internal/qpe"
)

func main() {
	const n = 5    // chain length (qubits of U)
	const bits = 6 // QPE precision
	params := ising.DefaultParams()
	circ := ising.TrotterStep(n, params)
	fmt.Printf("TFIM chain of %d sites: one Trotter step = %d gates (4n-3)\n",
		n, circ.Len())

	// Build the dense operator and pick an eigenvector as the input state,
	// so every method should recover its eigenphase.
	u := qpe.DenseUnitary(circ)
	eig, err := linalg.Eig(u)
	if err != nil {
		panic(err)
	}
	k := 0
	psi := make([]complex128, 1<<n)
	for i := range psi {
		psi[i] = eig.Vectors.At(i, k)
	}
	truth := cmplx.Phase(eig.Values[k]) / (2 * math.Pi)
	if truth < 0 {
		truth++
	}
	fmt.Printf("true eigenphase of eigenvector %d: %.6f\n", k, truth)

	// Method 1: gate-level simulation of the coherent QPE network,
	// built as one explicit circuit — ancilla i controls U^(2^i) via 2^i
	// repetitions of the controlled Trotter step, then the inverse QFT on
	// the ancilla block — and run through the unified backend API.
	t0 := time.Now()
	total := uint(n + bits)
	qpeCirc := repro.NewCircuit(total)
	for i := uint(0); i < bits; i++ {
		qpeCirc.Append(gates.H(n + i))
	}
	for i := uint(0); i < bits; i++ {
		for r := uint64(0); r < uint64(1)<<i; r++ {
			for _, g := range circ.Gates {
				qpeCirc.Append(g.WithControls(n + i))
			}
		}
	}
	qpeCirc.Extend(qpe.InverseQFTOn(n, bits, total))

	b, err := repro.Open(total, repro.WithFusion(3))
	if err != nil {
		panic(err)
	}
	copy(b.State().Amplitudes()[:len(psi)], psi)
	x, err := repro.Compile(qpeCirc, b.Target())
	if err != nil {
		panic(err)
	}
	if _, err := b.Run(x); err != nil {
		panic(err)
	}
	// Marginalise out the system register.
	simDist := make([]float64, uint64(1)<<bits)
	amps := b.State().Amplitudes()
	for y := uint64(0); y < uint64(1)<<bits; y++ {
		var acc float64
		for s := uint64(0); s < uint64(1)<<n; s++ {
			a := amps[y<<n|s]
			acc += real(a)*real(a) + imag(a)*imag(a)
		}
		simDist[y] = acc
	}
	tSim := time.Since(t0)
	report("simulated coherent QPE", simDist, bits, truth, tSim)

	// Method 2: emulation by repeated squaring (b-1 dense products).
	t0 = time.Now()
	sq, err := qpe.QPE(u, psi, bits, qpe.RepeatedSquaring)
	if err != nil {
		panic(err)
	}
	report("emulated QPE (repeated squaring)", sq.Distribution, bits, truth, time.Since(t0))

	// Method 3: emulation by eigendecomposition (closed-form readout).
	t0 = time.Now()
	ed, err := qpe.QPE(u, psi, bits, qpe.Eigendecomposition)
	if err != nil {
		panic(err)
	}
	report("emulated QPE (eigendecomposition)", ed.Distribution, bits, truth, time.Since(t0))

	// Cross-check the three distributions.
	var d12, d13 float64
	for y := range simDist {
		d12 = math.Max(d12, math.Abs(simDist[y]-sq.Distribution[y]))
		d13 = math.Max(d13, math.Abs(simDist[y]-ed.Distribution[y]))
	}
	fmt.Printf("max distribution difference: sim vs squaring %.2e, sim vs eigen %.2e\n",
		d12, d13)
}

func report(name string, dist []float64, bits uint, truth float64, took time.Duration) {
	best, bp := 0, 0.0
	for y, p := range dist {
		if p > bp {
			best, bp = y, p
		}
	}
	est := float64(best) / float64(uint64(1)<<bits)
	fmt.Printf("  %-36s -> phase %.6f (p=%.3f, |err| %.4f) in %v\n",
		name, est, bp, phaseDist(est, truth), took)
}

func phaseDist(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > 0.5 {
		d = 1 - d
	}
	return d
}
