// Monte Carlo: the paper's closing claim is that emulation "will be a
// crucial tool for ... quantum accelerated Monte Carlo sampling" (its
// Ref. [22]). This example builds the standard amplitude-encoding circuit
// for estimating E[f(x)] over uniform x — a payoff function rotated onto
// an ancilla qubit — and contrasts the three ways of reading the answer:
//
//  1. hardware-style: sample the ancilla many times (statistical error),
//  2. emulated readout: the exact probability in one pass (Section 3.4),
//  3. classical reference: the plain average, for validation.
//
// The payoff rotation is a per-basis-state 2x2 on the ancilla — block
// structure a gate-level simulator would realise as a long sequence of
// controlled rotations, and which is applied here directly to the
// repro.Open backend's state.
package main

import (
	"fmt"
	"math"

	"repro"
	"repro/internal/gates"
	"repro/internal/rng"
)

func main() {
	const n = 12 // 4096 sample points
	const anc = uint(n)

	// Payoff: a call-option-like hockey stick on [0, 1), normalised to [0, 1].
	payoff := func(x uint64) float64 {
		u := float64(x) / float64(uint64(1)<<n)
		v := (u - 0.4) / 0.6
		if v < 0 {
			return 0
		}
		return v
	}

	b, err := repro.Open(repro.Target{NumQubits: n + 1})
	if err != nil {
		panic(err)
	}
	// Uniform superposition over the sample register.
	for q := uint(0); q < n; q++ {
		b.ApplyGate(gates.H(q))
	}
	// Amplitude encoding: |x>|0> -> |x>(cos t_x |0> + sin t_x |1>) with
	// sin^2 t_x = payoff(x). Emulated as the block-diagonal operator it is.
	amps := b.State().Amplitudes()
	for x := uint64(0); x < uint64(1)<<n; x++ {
		theta := math.Asin(math.Sqrt(payoff(x)))
		c, s := complex(math.Cos(theta), 0), complex(math.Sin(theta), 0)
		a0 := amps[x]
		amps[x] = c * a0
		amps[x|1<<anc] = s * a0
	}

	// (2) Emulated readout: P(ancilla = 1) = E[payoff], exactly, one pass.
	exact := b.Probability(anc)

	// (3) Classical reference.
	var ref float64
	for x := uint64(0); x < uint64(1)<<n; x++ {
		ref += payoff(x)
	}
	ref /= float64(uint64(1) << n)

	// (1) Hardware-style estimate at increasing shot counts.
	src := rng.New(5)
	fmt.Printf("E[payoff]: exact emulated readout %.8f, classical reference %.8f\n", exact, ref)
	fmt.Printf("           |difference| = %.2e\n", math.Abs(exact-ref))
	for _, shots := range []int{100, 10000, 1000000} {
		hits := 0
		for _, outcome := range b.SampleMany(shots, src) {
			if outcome>>anc == 1 {
				hits++
			}
		}
		est := float64(hits) / float64(shots)
		fmt.Printf("sampled with %8d shots: %.6f (|err| %.2e)\n",
			shots, est, math.Abs(est-exact))
	}
	fmt.Println("the emulator removes the sampling loop entirely (Section 3.4)")
}
