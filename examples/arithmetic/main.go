// Arithmetic: the paper's Section 3.1 head-to-head on live code. A
// multiplication of two superposed m-bit registers is performed twice
// through the same repro.Open API — once on a gate-level backend
// simulating the reversible shift-and-add Toffoli network gate by gate,
// once on an emulating backend whose compile pipeline recognises the
// "mul" region and lowers it to one classical basis-state permutation —
// and the resulting states are compared bit-exactly, along with their
// run times. Division runs the same way through the "div" region.
package main

import (
	"fmt"

	"repro"
	"repro/internal/gates"
	"repro/internal/revlib"
)

func main() {
	const m = 4 // operand bits
	layout := revlib.NewMultiplierLayout(m)
	n := layout.NumQubits()
	fmt.Printf("multiplying two %d-bit registers (%d qubits total)\n", m, n)

	// Superpose both inputs, then multiply: the circuit acts on all
	// 2^(2m) operand pairs at once. revlib annotates the product network
	// as a "mul" region, which the emulating backend's compiler lowers.
	circ := repro.NewCircuit(n)
	for q := uint(0); q < 2*m; q++ {
		circ.Append(gates.H(q))
	}
	revlib.Multiplier(circ, layout.A, layout.B, layout.C, layout.CarryAnc)

	// Path 1: gate-level simulation of the reversible circuit.
	simB, err := repro.Open(repro.Target{NumQubits: n})
	if err != nil {
		panic(err)
	}
	simRes, err := mustRun(simB, circ)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  simulated %d gates in %v\n", circ.Len(), simRes.Wall)

	// Path 2: the emulating backend replaces the region with one
	// permutation.
	emuB, err := repro.Open(repro.Target{NumQubits: n, Emulate: repro.EmulateAnnotated})
	if err != nil {
		panic(err)
	}
	emuRes, err := mustRun(emuB, circ)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  emulated it in %v (%.0fx faster)\n",
		emuRes.Wall, float64(simRes.Wall)/float64(emuRes.Wall))
	for _, r := range emuRes.Emulated {
		fmt.Printf("    %v\n", r)
	}

	fmt.Printf("  max amplitude difference: %.2e\n",
		simB.State().MaxDiff(emuB.State()))

	// Spot-check one entry of the product table: P(c = 6 | a=2, b=3).
	// Measure-free: read the joint distribution directly.
	pa, pb := uint64(2), uint64(3)
	idx := pa | pb<<m | (pa*pb)<<(2*m)
	p := emuB.State().Probabilities()[idx]
	fmt.Printf("  P(a=2, b=3, c=6) = %.6f (expect 1/%d = %.6f)\n",
		p, 1<<(2*m), 1.0/float64(uint64(1)<<(2*m)))

	// Division, same contract: (a, b, 0) -> (a mod b, b, a div b), via the
	// "div" region of the restoring divider.
	dm := uint(3)
	dl := revlib.NewDividerLayout(dm)
	dcirc := repro.NewCircuit(dl.NumQubits())
	dcirc.Append(gates.X(1), gates.X(2)) // a = 6
	dcirc.Append(gates.X(2*dm + 2))      // b = 4
	revlib.Divider(dcirc, dl)
	divB, err := repro.Open(repro.Target{NumQubits: dl.NumQubits(), Emulate: repro.EmulateAnnotated})
	if err != nil {
		panic(err)
	}
	if _, err := mustRun(divB, dcirc); err != nil {
		panic(err)
	}
	for i, p := range divB.State().Probabilities() {
		if p > 0.5 {
			r := uint64(i) & 7
			q := (uint64(i) >> (3 * dm)) & 7
			fmt.Printf("division: 6 / 4 -> quotient %d remainder %d\n", q, r)
		}
	}
}

// mustRun compiles circ for b's target and runs it.
func mustRun(b repro.Backend, circ *repro.Circuit) (*repro.Result, error) {
	x, err := repro.Compile(circ, b.Target())
	if err != nil {
		return nil, err
	}
	return b.Run(x)
}
