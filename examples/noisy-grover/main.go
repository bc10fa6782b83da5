// Noisy Grover: how depolarizing noise eats unstructured-search
// advantage, measured with stochastic trajectories through the
// compile-once batch API.
//
// The gate-level Grover network is compiled exactly once per channel
// strength (the channel is part of the compiled artifact's noise plan),
// then replayed for thousands of stochastic trajectories sharing that
// one artifact. The success probability — the fraction of trajectories
// that measure the marked item — decays from the ideal ~1 toward the
// random-guess floor 1/2^n as the per-gate error rate p grows: with G
// gates, roughly (1-p)^G survival for small p. Batches are
// seed-deterministic: rerunning this program reproduces the histogram
// outcome for outcome, whatever -workers equivalent the machine picks.
package main

import (
	"fmt"
	"math"

	"repro"
	"repro/internal/experiments"
)

func main() {
	const n = 6 // search over 2^6 = 64 items
	const marked = 0b101101
	const trajectories = 4000

	iterations := int(math.Round(math.Pi / 4 * math.Sqrt(float64(uint64(1)<<n))))
	base := experiments.GroverGateLevel(n, marked, iterations)
	fmt.Printf("searching %d items for %#b: %d Grover iterations, %d gates\n",
		1<<n, marked, iterations, base.Len())
	fmt.Printf("%d trajectories per channel strength\n\n", trajectories)

	fmt.Printf("%-20s  %-10s  %-8s  %s\n", "channel", "P(success)", "jumps", "")
	for _, p := range []float64{0, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2} {
		// A fresh circuit per strength: the channel is a circuit
		// annotation, folded into the compiled noise plan.
		c := experiments.GroverGateLevel(n, marked, iterations)
		spec := ""
		if p > 0 {
			spec = fmt.Sprintf("depolarizing:%g", p)
		}
		if err := repro.WithNoise(c, spec); err != nil {
			panic(err)
		}

		b, err := repro.Open(repro.Target{NumQubits: n, FuseWidth: 3})
		if err != nil {
			panic(err)
		}
		x, err := repro.Compile(c, b.Target())
		if err != nil {
			panic(err)
		}
		b.Close() // the batch owns its own backends; Open only shaped the target

		res, err := repro.RunTrajectories(x, repro.TrajectoryOptions{
			Trajectories: trajectories,
			Seed:         42,
			Workers:      4,
		})
		if err != nil {
			panic(err)
		}
		success := float64(res.Counts()[marked]) / float64(trajectories)
		label := "ideal"
		if p > 0 {
			label = spec
		}
		bar := int(success * 40)
		fmt.Printf("%-20s  %-10.4f  %-8d  %s\n", label, success, res.Jumps,
			"#########################################"[:bar+1])
	}
	fmt.Printf("\nrandom-guess floor: %.4f\n", 1/float64(uint64(1)<<n))
}
