// Package circgen holds the seeded circuit families the property tests
// and fuzz targets generate their inputs from, and the paper sweeps
// (internal/experiments) their brickwork. Each stresses one decision
// of the fusion planner — brickwork the dense/re-tile choice, QFT ladders
// the deferral of diagonal tails, phase runs with far-apart interrupters
// the diagonal rule under hoisting, over-wide controlled gates the
// passthrough path — which makes them the circuits on which a unit run
// whole differs most from its gates replayed one by one: what the
// trajectory runner's parity tests (internal/noise) need. Two more hold
// annotated reversible arithmetic, the circuits the emulator replaces with
// a permutation of the state, and annotated Fourier transforms between
// rotation layers, which it replaces with an FFT.
//
// A family is a pure function of (stream, width, size): equal streams give
// equal circuits.
package circgen

import (
	"math"
	"slices"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/revlib"
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

// arithmeticKinds are the revlib circuits Arithmetic draws from: each
// one's register widths in units of the operand width, its count of single
// ancilla qubits, and its builder.
var arithmeticKinds = []struct {
	regs  []uint
	aux   uint
	build func(c *circuit.Circuit, r []revlib.Register, aux []uint)
}{
	{[]uint{1, 1}, 1, func(c *circuit.Circuit, r []revlib.Register, aux []uint) { revlib.Adder(c, r[0], r[1], aux[0]) }},
	{[]uint{1, 1}, 1, func(c *circuit.Circuit, r []revlib.Register, aux []uint) { revlib.Subtractor(c, r[0], r[1], aux[0]) }},
	{[]uint{1, 1}, 2, func(c *circuit.Circuit, r []revlib.Register, aux []uint) {
		revlib.AdderWithCarryOut(c, r[0], r[1], aux[0], aux[1])
	}},
	{[]uint{1, 1, 1}, 1, func(c *circuit.Circuit, r []revlib.Register, aux []uint) {
		revlib.Multiplier(c, r[0], r[1], r[2], aux[0])
	}},
	{[]uint{2, 1, 1}, 2, func(c *circuit.Circuit, r []revlib.Register, aux []uint) {
		revlib.Divider(c, revlib.DividerLayout{M: r[1].Width(), R: r[0], B: r[1], Q: r[2], BZ: aux[0], CarryAnc: aux[1]})
	}},
}

// Arithmetic is a rotation layer on every qubit — so every ancilla is
// dirty — followed by ops of revlib's annotated circuits: adders,
// subtractors, carry-out adders, multipliers and, where 4w+2 <= n,
// dividers, at every operand width that fits, on registers that are runs
// of consecutive qubits or scattered ones. n >= 5.
func Arithmetic(src *rng.Source, n uint, ops int) *circuit.Circuit {
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		c.Append(gates.Ry(q, src.Float64()*2), gates.Rz(q, src.Float64()*3))
	}
	for i := 0; i < ops; {
		kind := arithmeticKinds[src.Intn(len(arithmeticKinds))]
		var unit uint
		for _, r := range kind.regs {
			unit += r
		}
		maxW := (n - kind.aux) / unit
		if maxW == 0 {
			continue // the divider on five qubits: draw again
		}
		i++
		w := 1 + uint(src.Intn(int(maxW)))
		widths := make([]uint, len(kind.regs))
		for j, r := range kind.regs {
			widths[j] = r * w
		}
		regs, aux := Registers(src, n, widths, kind.aux, src.Intn(2) == 0)
		kind.build(c, regs, aux)
	}
	return c
}

// FourierSandwich is reps rounds of a rotation layer, the QFT of a
// random field of width n-1 or n (with its swaps or without), a second
// rotation layer and the field's inverse QFT: annotated Fourier regions
// wide enough that a cluster lowers them across its node bits, with gates
// after each that read the output order the lowering leaves. n >= 2.
func FourierSandwich(src *rng.Source, n uint, reps int) *circuit.Circuit {
	c := circuit.New(n)
	rotations := func() {
		for q := uint(0); q < n; q++ {
			c.Append(gates.Ry(q, src.Float64()*2), gates.Rz(q, src.Float64()*3))
		}
	}
	for r := 0; r < reps; r++ {
		w := n - uint(src.Intn(2))
		pos := uint(src.Intn(int(n-w) + 1))
		swaps := src.Intn(2) == 0
		rotations()
		c.Extend(qft.Field(n, pos, w, swaps))
		rotations()
		c.Extend(qft.Field(n, pos, w, swaps).Dagger())
	}
	return c
}

// GroverMix is the chain of recognised ops the emulator runs in one pass
// each: a Hadamard layer (or, with rotations, a layer of random Ry), an
// annotated Grover iteration (phase flip and reflection about the uniform
// state) whose reflection follows the fill and the flip, a second one whose
// phase flip is left to the matcher, then an annotated adder directly
// followed by a run of diagonal gates the matcher finds, a Ry layer, and a
// second diagonal run directly followed by an annotated subtractor — each
// arithmetic op beside a diagonal, in both orders. The operands are the
// fields [0, w) and [w, 2w), w = ⌊(n-1)/2⌋, with qubit 2w as the carry;
// the diagonal runs hold n+32 gates, past the emulation cutoff. n >= 5.
func GroverMix(src *rng.Source, n uint, rotations bool) *circuit.Circuit {
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		if rotations {
			c.Append(gates.Ry(q, 0.2+2*src.Float64()))
		} else {
			c.Append(gates.H(q))
		}
	}
	all := make([]uint64, 0, n+2)
	all = append(all, uint64(n))
	controls := make([]uint, 0, n-1)
	for q := uint(0); q < n; q++ {
		all = append(all, uint64(q))
		if q > 0 {
			controls = append(controls, q)
		}
	}
	mcz := gates.Z(0).WithControls(controls...)
	for it := 0; it < 2; it++ {
		marked, lo := src.Uint64n(1<<n), c.Len()
		for pass := 0; pass < 2; pass++ {
			for q := uint(0); q < n; q++ {
				if marked>>q&1 == 0 {
					c.Append(gates.X(q))
				}
			}
			if pass == 0 {
				c.Append(mcz)
			}
		}
		if it == 0 {
			c.Annotate(circuit.Region{Name: "phaseflip", Args: append(slices.Clip(all), marked), Lo: lo, Hi: c.Len()})
		}
		lo = c.Len()
		for q := uint(0); q < n; q++ {
			c.Append(gates.H(q), gates.X(q))
		}
		c.Append(mcz)
		for q := uint(0); q < n; q++ {
			c.Append(gates.X(q), gates.H(q))
		}
		c.Annotate(circuit.Region{Name: "reflect-uniform", Args: all, Lo: lo, Hi: c.Len()})
	}
	w := (n - 1) / 2
	diagonals := func() {
		width := min(n, 6)
		pos := uint(src.Intn(int(n-width) + 1))
		for range n + 32 {
			a := pos + uint(src.Intn(int(width)))
			if b := pos + uint(src.Intn(int(width))); b != a {
				c.Append(gates.CR(a, b, 0.1+3*src.Float64()))
				continue
			}
			c.Append(gates.Rz(a, 0.1+3*src.Float64()))
		}
	}
	revlib.Adder(c, revlib.Seq(0, w), revlib.Seq(w, w), 2*w)
	diagonals()
	for q := uint(0); q < n; q++ {
		c.Append(gates.Ry(q, 0.2+2*src.Float64()))
	}
	diagonals()
	revlib.Subtractor(c, revlib.Seq(0, w), revlib.Seq(w, w), 2*w)
	return c
}

// Registers places disjoint registers of the given widths and aux single
// qubits on n qubits: the registers on runs of consecutive qubits in a
// random order with the free qubits spread between them, or — not
// contiguous — every qubit drawn from a shuffle.
func Registers(src *rng.Source, n uint, widths []uint, aux uint, contiguous bool) ([]revlib.Register, []uint) {
	regs := make([]revlib.Register, len(widths))
	singles := make([]uint, aux)
	if !contiguous {
		perm := src.Perm(int(n))
		for i, w := range widths {
			for _, q := range perm[:w] {
				regs[i] = append(regs[i], uint(q))
			}
			perm = perm[w:]
		}
		for i := range singles {
			singles[i] = uint(perm[i])
		}
		return regs, singles
	}
	// Blocks 0..len(widths)-1 are the registers, the rest single qubits;
	// laid out left to right in shuffled order.
	free := n
	for _, w := range widths {
		free -= w
	}
	var spare []uint
	pos := uint(0)
	for _, b := range src.Perm(len(widths) + int(free)) {
		if b < len(widths) {
			regs[b] = revlib.Seq(pos, widths[b])
			pos += widths[b]
			continue
		}
		spare = append(spare, pos)
		pos++
	}
	for i, j := range src.Perm(len(spare))[:aux] {
		singles[i] = spare[j]
	}
	return regs, singles
}
