// Package circgen holds the seeded circuit families the property tests
// and fuzz targets generate their inputs from. Each stresses one decision
// of the fusion planner — brickwork the dense/re-tile choice, QFT ladders
// the deferral of diagonal tails, phase runs with far-apart interrupters
// the diagonal rule under hoisting, over-wide controlled gates the
// passthrough path — which makes them the circuits on which a unit run
// whole differs most from its gates replayed one by one: what the
// trajectory runner's parity tests (internal/noise) need.
//
// A family is a pure function of (stream, width, size): equal streams give
// equal circuits.
package circgen

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/rng"
)

// Brickwork is layers of Rx·Rz on every qubit followed by CNOTs on
// neighbouring pairs at alternating offsets. n >= 2.
func Brickwork(src *rng.Source, n uint, layers int) *circuit.Circuit {
	c := circuit.New(n)
	for l := 0; l < layers; l++ {
		for q := uint(0); q < n; q++ {
			c.Append(gates.Rx(q, src.Float64()*math.Pi), gates.Rz(q, src.Float64()*math.Pi))
		}
		for q := uint(l % 2); q+1 < n; q += 2 {
			c.Append(gates.CNOT(q, q+1))
		}
	}
	return c
}

// QFTLadders is reps QFT-style ladders (H then controlled phases from
// every higher qubit), each starting at a random qubit. n >= 3.
func QFTLadders(src *rng.Source, n uint, reps int) *circuit.Circuit {
	c := circuit.New(n)
	for r := 0; r < reps; r++ {
		lo := uint(src.Intn(int(n) - 2))
		for q := lo; q < n; q++ {
			c.Append(gates.H(q))
			for j := q + 1; j < n; j++ {
				c.Append(gates.CR(j, q, math.Pi/float64(uint(1)<<(j-q))))
			}
		}
	}
	return c
}

// InterruptedPhaseRuns is runs of diagonal gates on a neighbouring pair,
// interrupted by gates that must stay out of the run. n >= 2.
func InterruptedPhaseRuns(src *rng.Source, n uint, runs int) *circuit.Circuit {
	c := circuit.New(n)
	for r := 0; r < runs; r++ {
		q := uint(src.Intn(int(n) - 1))
		far := (q + n/2) % n
		c.Append(gates.T(q), gates.CR(q+1, q, src.Float64()*2))
		// A diagonal gate reaching a far qubit, a dense gate on a disjoint
		// one, and an H·H pair split by both: all three must stay out of
		// the pair's diagonal run without breaking it.
		c.Append(gates.H(q), gates.CR(q, far, src.Float64()), gates.Ry(far, src.Float64()*2), gates.H(q))
		c.Append(gates.Rz(q+1, src.Float64()*3), gates.CR(q, q+1, src.Float64()*2), gates.S(q+1))
	}
	return c
}

// WideControlled is rotation layers followed by an X under n-1 controls
// and a Z under four. n >= 5.
func WideControlled(src *rng.Source, n uint, reps int) *circuit.Circuit {
	c := circuit.New(n)
	controls := make([]uint, n-1)
	for i := range controls {
		controls[i] = uint(i) + 1
	}
	for r := 0; r < reps; r++ {
		for q := uint(0); q < n; q++ {
			c.Append(gates.Ry(q, src.Float64()*2))
		}
		c.Append(gates.X(0).WithControls(controls...)) // n-1 controls: wider than any budget
		c.Append(gates.CR(n-2, n-1, src.Float64()), gates.Z(0).WithControls(controls[:4]...))
	}
	return c
}
