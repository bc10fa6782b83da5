// Grover: unstructured search through the unified backend API. The whole
// algorithm is written as an ordinary gate-level circuit — X-conjugated
// multi-controlled-Z oracles and H/X-conjugated diffusions — and run
// twice through repro.Open: once simulating every gate, once with
// emulation dispatch, whose compiler recognises each oracle as a phase
// flip (one sign flip per basis pattern) and each diffusion as the
// Householder reflection I - 2|s><s| (two linear passes), the classical
// shortcuts of the paper's Section 3.1.
package main

import (
	"fmt"
	"math"

	"repro"
	"repro/internal/experiments"
)

func main() {
	const n = 10 // search over 2^10 = 1024 items
	const marked = 0b1011001110

	iterations := int(math.Round(math.Pi / 4 * math.Sqrt(float64(uint64(1)<<n))))
	fmt.Printf("searching %d items for %#b with %d Grover iterations\n",
		1<<n, marked, iterations)

	// The gate-level Grover network (with its subroutine annotations).
	circ := experiments.GroverGateLevel(n, marked, iterations)
	fmt.Printf("circuit: %d gates\n", circ.Len())

	// Gate-level baseline.
	simB, err := repro.Open(repro.Target{NumQubits: n, FuseWidth: 3})
	if err != nil {
		panic(err)
	}
	simX, err := repro.Compile(circ, simB.Target())
	if err != nil {
		panic(err)
	}
	simRes, err := simB.Run(simX)
	if err != nil {
		panic(err)
	}

	// Emulation dispatch: oracles become phase flips, diffusions become
	// reflections.
	emuB, err := repro.Open(repro.Target{NumQubits: n, Emulate: repro.EmulateAuto})
	if err != nil {
		panic(err)
	}
	emuX, err := repro.Compile(circ, emuB.Target())
	if err != nil {
		panic(err)
	}
	emuRes, err := emuB.Run(emuX)
	if err != nil {
		panic(err)
	}
	fmt.Printf("gate level: %v\nemulated:   %v\n", simRes, emuRes)
	fmt.Printf("backends agree to %.2e\n", simB.State().MaxDiff(emuB.State()))

	// Exact readout (Section 3.4): no sampling loop needed to see the
	// success probability.
	probs := emuB.State().Probabilities()
	fmt.Printf("P(marked) = %.6f\n", probs[marked])
	best, bp := 0, 0.0
	for i, p := range probs {
		if p > bp {
			best, bp = i, p
		}
	}
	fmt.Printf("most probable outcome: %#b (p = %.6f)\n", best, bp)
	if best == marked {
		fmt.Println("found the marked item ✓")
	}
}
