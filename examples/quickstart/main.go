// Quickstart: open a backend through repro.Open (the constructor for a
// hand-configured engine), build a GHZ state, inspect the exact measurement
// distribution (the emulator's Section 3.4 shortcut), draw hardware-style
// samples, and verify the explicit gate-level backend and the backend
// opened for an auto-compiled executable (Compile picks the engine,
// repro.OpenFor opens it) agree gate-for-gate.
package main

import (
	"fmt"

	"repro"
	"repro/internal/gates"
	"repro/internal/rng"
)

func main() {
	const n = 4

	// H then a CNOT fan prepares (|0000>+|1111>)/sqrt2.
	circ := repro.NewCircuit(n)
	circ.Append(gates.H(0))
	for q := uint(1); q < n; q++ {
		circ.Append(gates.CNOT(0, q))
	}

	// Gate-level simulation: the default backend runs every gate through
	// the structure-specialised kernels.
	s, err := repro.Open(repro.Target{NumQubits: n})
	if err != nil {
		panic(err)
	}
	sx, err := repro.Compile(circ, s.Target())
	if err != nil {
		panic(err)
	}
	if _, err := s.Run(sx); err != nil {
		panic(err)
	}

	// The same program compiled for the auto target: Compile profiles the
	// circuit, prices every engine with the cost model and
	// picks the cheapest — engine kind, fusion width and node count are
	// all decided for you — and OpenFor opens a backend of the chosen
	// shape (this tiny circuit has nothing recognisable, so both paths
	// execute the same kernels — which is the check).
	ex, err := repro.Compile(circ, repro.Target{NumQubits: n, Auto: true})
	if err != nil {
		panic(err)
	}
	e, err := repro.OpenFor(ex)
	if err != nil {
		panic(err)
	}
	if _, err := e.Run(ex); err != nil {
		panic(err)
	}

	fmt.Printf("gate-level/auto backend max amplitude difference: %.2e\n",
		s.State().MaxDiff(e.State()))

	// Exact distribution in one pass — no repeated runs needed.
	fmt.Println("exact measurement distribution:")
	for i, p := range e.State().Probabilities() {
		if p > 1e-12 {
			fmt.Printf("  |%04b>  %.4f\n", i, p)
		}
	}

	// What hardware would give you: one n-bit sample per run.
	src := rng.New(7)
	counts := map[uint64]int{}
	const shots = 1000
	for _, outcome := range e.SampleMany(shots, src) {
		counts[outcome]++
	}
	fmt.Printf("%d hardware-style shots:\n", shots)
	for outcome, c := range counts {
		fmt.Printf("  |%04b>  %d\n", outcome, c)
	}

	// Exact expectation of a diagonal observable (parity of the register).
	parity := func(x uint64) float64 {
		if popcount(x)%2 == 0 {
			return 1
		}
		return -1
	}
	fmt.Printf("exact <parity> = %+.4f (GHZ: both outcomes have even parity)\n",
		e.State().ExpectationDiagonal(parity))
}

func popcount(x uint64) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}
