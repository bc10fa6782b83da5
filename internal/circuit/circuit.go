// Package circuit provides the gate-sequence intermediate representation a
// simulator executes: an ordered list of gates over a fixed-width qubit
// register, with builders, inversion (the uncomputation step of reversible
// logic), statistics, and the Toffoli decomposition into Clifford+T.
package circuit

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/gates"
)

// Region marks the half-open gate range [Lo, Hi) as implementing a named
// subroutine with integer parameters — the annotation the emulation
// dispatcher (internal/recognize) trusts to replace the range with a
// classical shortcut. Builders that know what they emit (qft, revlib)
// annotate as they go; the qasm frontend exposes the same markers as
// `region NAME args...` / `endregion` lines. The names and argument
// layouts the dispatcher understands are documented in internal/recognize;
// unknown names are carried along and simply never emulated.
type Region struct {
	// Name identifies the subroutine ("qft", "add", "mul", ...).
	Name string
	// Args are the subroutine's integer parameters (register positions,
	// widths, oracle values); their layout is Name-specific.
	Args []uint64
	// Lo and Hi bound the gate range [Lo, Hi) the annotation covers.
	Lo, Hi int
}

// Circuit is an ordered gate sequence over NumQubits qubits.
type Circuit struct {
	// NumQubits is the register width; every gate must fit inside it.
	NumQubits uint
	// Gates is the sequence, applied left to right.
	Gates []gates.Gate
	// Regions annotates gate ranges as named subroutines, kept sorted by
	// Lo and pairwise disjoint. Maintain it through Annotate, not directly.
	Regions []Region
	// Noise optionally attaches a stochastic error model; nil means ideal
	// evolution. Maintain through SetGlobalNoise/AttachNoise, not directly.
	Noise *NoiseModel
}

// New returns an empty circuit over n qubits.
func New(n uint) *Circuit {
	return &Circuit{NumQubits: n}
}

// Append adds gates to the end of the circuit, validating qubit bounds.
func (c *Circuit) Append(gs ...gates.Gate) *Circuit {
	for _, g := range gs {
		if g.MaxQubit() >= c.NumQubits {
			panic(fmt.Sprintf("circuit: gate %v exceeds register width %d", g, c.NumQubits))
		}
		c.Gates = append(c.Gates, g)
	}
	return c
}

// Annotate records a Region over an existing gate range. The range must
// lie inside the circuit. Regions already recorded that are fully
// contained in the new range are absorbed (dropped in its favour — the
// outermost subroutine is the one worth emulating whole); a partial
// overlap with an existing region is a programming error and panics.
func (c *Circuit) Annotate(r Region) *Circuit {
	if r.Lo < 0 || r.Hi < r.Lo || r.Hi > len(c.Gates) {
		panic(fmt.Sprintf("circuit: region %s [%d,%d) outside circuit of %d gates",
			r.Name, r.Lo, r.Hi, len(c.Gates)))
	}
	kept := c.Regions[:0]
	for _, old := range c.Regions {
		if old.Lo >= r.Lo && old.Hi <= r.Hi {
			continue // absorbed by the wider annotation
		}
		if old.Hi > r.Lo && old.Lo < r.Hi {
			panic(fmt.Sprintf("circuit: region %s [%d,%d) partially overlaps %s [%d,%d)",
				r.Name, r.Lo, r.Hi, old.Name, old.Lo, old.Hi))
		}
		kept = append(kept, old)
	}
	c.Regions = append(kept, r)
	sort.Slice(c.Regions, func(i, j int) bool { return c.Regions[i].Lo < c.Regions[j].Lo })
	return c
}

// Extend appends every gate of other; other must not be wider than c.
// Annotated regions of other are carried over at their shifted offsets.
func (c *Circuit) Extend(other *Circuit) *Circuit {
	if other.NumQubits > c.NumQubits {
		panic("circuit: Extend with wider circuit")
	}
	base := len(c.Gates)
	c.Append(other.Gates...)
	for _, r := range other.Regions {
		c.Annotate(Region{Name: r.Name, Args: append([]uint64(nil), r.Args...),
			Lo: base + r.Lo, Hi: base + r.Hi})
	}
	c.extendNoise(other, base)
	return c
}

// Len returns the number of gates.
func (c *Circuit) Len() int { return len(c.Gates) }

// regionInverse names the subroutine a region becomes under Dagger.
// Regions whose inverse has no annotation name are dropped (the gates are
// still inverted correctly; they just lose their shortcut marker).
var regionInverse = map[string]string{
	"qft":             "iqft",
	"iqft":            "qft",
	"qft-noswap":      "iqft-noswap",
	"iqft-noswap":     "qft-noswap",
	"add":             "sub",
	"sub":             "add",
	"phaseflip":       "phaseflip",
	"reflect-uniform": "reflect-uniform",
}

// Dagger returns the inverse circuit: every gate inverted, in reverse
// order. Running a circuit followed by its dagger is the uncomputation
// pattern of Bennett [10] that clears temporary work qubits. Annotated
// regions whose inverse is itself a named subroutine (qft <-> iqft,
// add <-> sub, phaseflip) are re-annotated at their mirrored offsets;
// other regions are dropped.
func (c *Circuit) Dagger() *Circuit {
	inv := New(c.NumQubits)
	inv.Gates = make([]gates.Gate, 0, len(c.Gates))
	for i := len(c.Gates) - 1; i >= 0; i-- {
		inv.Gates = append(inv.Gates, c.Gates[i].Dagger())
	}
	n := len(c.Gates)
	for _, r := range c.Regions {
		name, ok := regionInverse[r.Name]
		if !ok {
			continue
		}
		inv.Annotate(Region{Name: name, Args: append([]uint64(nil), r.Args...),
			Lo: n - r.Hi, Hi: n - r.Lo})
	}
	inv.Noise = daggerNoise(c.Noise, n)
	return inv
}

// Controlled returns the circuit with every gate additionally conditioned
// on the given control qubits. Valid when every gate commutes with the
// control projection, which holds for any unitary sequence: C-(UV) =
// (C-U)(C-V). Region annotations do not survive the promotion (a
// controlled subroutine is a different subroutine) and are dropped.
func (c *Circuit) Controlled(controls ...uint) *Circuit {
	cc := New(c.NumQubits)
	cc.Gates = make([]gates.Gate, 0, len(c.Gates))
	for _, g := range c.Gates {
		cc.Gates = append(cc.Gates, g.WithControls(controls...))
	}
	cc.Noise = c.Noise.Clone()
	return cc
}

// Depth returns the circuit depth under the standard as-soon-as-possible
// schedule: gates sharing no qubit may run in the same layer.
func (c *Circuit) Depth() int {
	level := make(map[uint]int, c.NumQubits)
	depth := 0
	for _, g := range c.Gates {
		l := 0
		for _, q := range g.Qubits() {
			if level[q] > l {
				l = level[q]
			}
		}
		l++
		for _, q := range g.Qubits() {
			level[q] = l
		}
		if l > depth {
			depth = l
		}
	}
	return depth
}

func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit[%d qubits, %d gates]:", c.NumQubits, len(c.Gates))
	for i, g := range c.Gates {
		if i >= 32 {
			fmt.Fprintf(&b, " ... (+%d more)", len(c.Gates)-i)
			break
		}
		b.WriteByte(' ')
		b.WriteString(g.String())
	}
	return b.String()
}

// Runner is anything that can execute a gate; both the local state vector
// and the distributed back-end satisfy it.
type Runner interface {
	ApplyGate(g gates.Gate)
}

// Run applies every gate of c to r in order.
func (c *Circuit) Run(r Runner) {
	for _, g := range c.Gates {
		r.ApplyGate(g)
	}
}
