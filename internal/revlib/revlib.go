package revlib

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// Register is an ordered list of qubit indices holding an integer, least
// significant qubit first.
type Register []uint

// Seq returns the register [start, start+width).
func Seq(start, width uint) Register {
	r := make(Register, width)
	for i := range r {
		r[i] = start + uint(i)
	}
	return r
}

// Width returns the number of qubits in the register.
func (r Register) Width() uint { return uint(len(r)) }

// Slice returns the sub-register [lo, hi).
func (r Register) Slice(lo, hi uint) Register { return r[lo:hi] }

// cnot appends a CNOT, ccx a Toffoli.
func cnot(c *circuit.Circuit, control, target uint) { c.Append(gates.CNOT(control, target)) }
func ccx(c *circuit.Circuit, c0, c1, target uint)   { c.Append(gates.Toffoli(c0, c1, target)) }

// maj appends the Cuccaro MAJ block on (carry, b, a): after it, a holds
// the majority (the next carry), b holds a XOR b.
func maj(circ *circuit.Circuit, carry, b, a uint) {
	cnot(circ, a, b)
	cnot(circ, a, carry)
	ccx(circ, carry, b, a)
}

// uma appends the Cuccaro UMA (UnMajority-and-Add) block on (carry, b, a):
// it undoes MAJ's carry computation and writes the sum bit into b.
func uma(circ *circuit.Circuit, carry, b, a uint) {
	ccx(circ, carry, b, a)
	cnot(circ, a, carry)
	cnot(circ, carry, b)
}

// arithArgs packs the annotation argument layout shared by "add" and
// "sub" regions: operand width, then the a bits, the b bits and the carry
// ancilla. See internal/recognize for the region vocabulary.
func arithArgs(a, b Register, carryAnc uint) []uint64 {
	args := make([]uint64, 0, 2*len(a)+2)
	args = append(args, uint64(len(a)))
	for _, q := range a {
		args = append(args, uint64(q))
	}
	for _, q := range b {
		args = append(args, uint64(q))
	}
	return append(args, uint64(carryAnc))
}

// Adder appends the Cuccaro ripple-carry adder computing b += a (mod 2^w)
// where w = len(a) = len(b). carryAnc is a clean ancilla providing the
// carry-in; it is restored to |0> by the UMA sweep, as is register a.
// On a dirty carry ancilla the network computes b += a + carry exactly,
// which is how the emitted "add" region annotation describes it.
// The construction is the one the paper benchmarks (its Ref. [12]).
func Adder(circ *circuit.Circuit, a, b Register, carryAnc uint) {
	w := a.Width()
	if b.Width() != w {
		panic(fmt.Sprintf("revlib: adder operand widths differ: %d vs %d", w, b.Width()))
	}
	if w == 0 {
		return
	}
	lo := circ.Len()
	carry := carryAnc
	for i := uint(0); i < w; i++ {
		maj(circ, carry, b[i], a[i])
		carry = a[i]
	}
	for i := int(w) - 1; i >= 0; i-- {
		prev := carryAnc
		if i > 0 {
			prev = a[i-1]
		}
		uma(circ, prev, b[i], a[i])
	}
	circ.Annotate(circuit.Region{Name: "add", Args: arithArgs(a, b, carryAnc), Lo: lo, Hi: circ.Len()})
}

// AdderWithCarryOut is Adder but additionally XORs the carry out of the
// most significant position into qubit carryOut, computing the full
// (w+1)-bit sum. The range is annotated as an "addc" region (args: w, the
// a bits, the b bits, the carry ancilla and the carry-out qubit) so the
// emulation dispatcher can lower it to the permutation
// b += a + carry, carryOut ^= carry-out.
func AdderWithCarryOut(circ *circuit.Circuit, a, b Register, carryAnc, carryOut uint) {
	w := a.Width()
	if b.Width() != w {
		panic("revlib: adder operand widths differ")
	}
	if w == 0 {
		return
	}
	lo := circ.Len()
	carry := carryAnc
	for i := uint(0); i < w; i++ {
		maj(circ, carry, b[i], a[i])
		carry = a[i]
	}
	cnot(circ, a[w-1], carryOut)
	for i := int(w) - 1; i >= 0; i-- {
		prev := carryAnc
		if i > 0 {
			prev = a[i-1]
		}
		uma(circ, prev, b[i], a[i])
	}
	args := append(arithArgs(a, b, carryAnc), uint64(carryOut))
	circ.Annotate(circuit.Region{Name: "addc", Args: args, Lo: lo, Hi: circ.Len()})
}

// Subtractor appends b -= a (mod 2^w) using the two's-complement identity
// b - a = ~(~b + a): X-conjugation of b around an adder. A dirty carry
// ancilla subtracts too: b -= a + carry, which is what the emitted "sub"
// region annotation records (it absorbs the inner "add" marker).
func Subtractor(circ *circuit.Circuit, a, b Register, carryAnc uint) {
	lo := circ.Len()
	for _, q := range b {
		circ.Append(gates.X(q))
	}
	Adder(circ, a, b, carryAnc)
	for _, q := range b {
		circ.Append(gates.X(q))
	}
	circ.Annotate(circuit.Region{Name: "sub", Args: arithArgs(a, b, carryAnc), Lo: lo, Hi: circ.Len()})
}

// ControlledAdder appends b += a (mod 2^w) conditioned on every control
// qubit reading 1. Every gate of the adder is promoted with the controls;
// the resulting 3-controlled X gates are what make controlled arithmetic so
// expensive for a simulator.
func ControlledAdder(circ *circuit.Circuit, a, b Register, carryAnc uint, controls ...uint) {
	sub := circuit.New(circ.NumQubits)
	Adder(sub, a, b, carryAnc)
	circ.Extend(sub.Controlled(controls...))
}

// Multiplier appends the repeated-addition-and-shift product circuit
// computing c += a*b (mod 2^m), the construction the paper benchmarks in
// Figure 1. Registers a, b, c all have width m; carryAnc is one clean
// ancilla. For each bit i of a it adds (b << i) into c, controlled on a_i,
// using a controlled Cuccaro adder of width m-i.
//
// Layout: (a, b, c=0) -> (a, b, a*b mod 2^m), total 3m+1 qubits. The
// whole range is annotated as a "mul" region (args: m, then the a, b, c
// bits and the carry ancilla) for the emulation dispatcher.
func Multiplier(circ *circuit.Circuit, a, b, c Register, carryAnc uint) {
	m := a.Width()
	if b.Width() != m || c.Width() != m {
		panic("revlib: multiplier register widths differ")
	}
	lo := circ.Len()
	for i := uint(0); i < m; i++ {
		// c[i..m) += b[0..m-i), controlled on a[i].
		ControlledAdder(circ, b.Slice(0, m-i), c.Slice(i, m), carryAnc, a[i])
	}
	args := make([]uint64, 0, 3*m+2)
	args = append(args, uint64(m))
	for _, reg := range []Register{a, b, c} {
		for _, q := range reg {
			args = append(args, uint64(q))
		}
	}
	args = append(args, uint64(carryAnc))
	circ.Annotate(circuit.Region{Name: "mul", Args: args, Lo: lo, Hi: circ.Len()})
}

// DividerLayout describes the qubit layout Divider uses, so callers (and
// the benchmark harness) can prepare inputs and read outputs.
type DividerLayout struct {
	M        uint     // operand width in bits
	R        Register // 2m qubits: low m hold dividend a in, remainder out; high m are work qubits (in/out |0>)
	B        Register // m qubits: divisor, unchanged
	Q        Register // m qubits: quotient out (in |0>)
	BZ       uint     // clean ancilla zero-extending B to m+1 bits
	CarryAnc uint     // clean ancilla: adder carry-in
}

// NumQubits returns the register width the divider circuit needs: 4m+2.
// The m extra work qubits plus two ancillas are the "additional work
// qubits" the paper blames for division's larger simulation cost and its
// m <= 7 limit (Figure 2).
func (l DividerLayout) NumQubits() uint { return 4*l.M + 2 }

// NewDividerLayout packs the divider registers contiguously from qubit 0:
// R[2m] | B[m] | Q[m] | BZ | CarryAnc.
func NewDividerLayout(m uint) DividerLayout {
	return DividerLayout{
		M:        m,
		R:        Seq(0, 2*m),
		B:        Seq(2*m, m),
		Q:        Seq(3*m, m),
		BZ:       4 * m,
		CarryAnc: 4*m + 1,
	}
}

// Divider appends the restoring-division circuit mapping
// (a, b, 0) -> (r, b, floor(a/b)) with r = a mod b, for b != 0.
//
// Algorithm: the classical restoring array divider made reversible. The
// working register R holds the dividend in its low m bits; at step i
// (i = m-1 .. 0) the (m+1)-bit window R[i .. i+m] holds twice the running
// remainder plus the next dividend bit. The circuit subtracts the
// (zero-extended) divisor from the window, copies the window's sign bit
// into q_i, adds the divisor back conditioned on q_i (the restore), and
// flips q_i so it records the quotient bit. All work qubits end clean.
// The whole range is annotated as a "div" region (args: m, then the R, B
// and Q bits, the zero-extension ancilla and the carry ancilla), absorbing
// the inner "sub" markers of the per-step subtractors.
func Divider(circ *circuit.Circuit, l DividerLayout) {
	m := l.M
	if m == 0 {
		return
	}
	lo := circ.Len()
	bExt := append(append(Register{}, l.B...), l.BZ) // divisor zero-extended to m+1 bits
	for step := int(m) - 1; step >= 0; step-- {
		i := uint(step)
		window := l.R.Slice(i, i+m+1)
		Subtractor(circ, bExt, window, l.CarryAnc)
		top := window[m]
		cnot(circ, top, l.Q[i]) // q_i = 1  <=>  window went negative
		ControlledAdder(circ, bExt, window, l.CarryAnc, l.Q[i])
		circ.Append(gates.X(l.Q[i])) // q_i = 1  <=>  subtraction stood
	}
	args := make([]uint64, 0, 4*m+3)
	args = append(args, uint64(m))
	for _, reg := range []Register{l.R, l.B, l.Q} {
		for _, q := range reg {
			args = append(args, uint64(q))
		}
	}
	args = append(args, uint64(l.BZ), uint64(l.CarryAnc))
	circ.Annotate(circuit.Region{Name: "div", Args: args, Lo: lo, Hi: circ.Len()})
}

// MultiplierLayout mirrors DividerLayout for the product circuit:
// A[m] | B[m] | C[m] | CarryAnc, 3m+1 qubits.
type MultiplierLayout struct {
	M        uint
	A, B, C  Register
	CarryAnc uint
}

// NumQubits returns 3m+1.
func (l MultiplierLayout) NumQubits() uint { return 3*l.M + 1 }

// NewMultiplierLayout packs the multiplier registers from qubit 0.
func NewMultiplierLayout(m uint) MultiplierLayout {
	return MultiplierLayout{
		M:        m,
		A:        Seq(0, m),
		B:        Seq(m, m),
		C:        Seq(2*m, m),
		CarryAnc: 3 * m,
	}
}

// BuildMultiplier returns the complete multiplication circuit for the
// layout, ready to run on a simulator back-end.
func BuildMultiplier(l MultiplierLayout) *circuit.Circuit {
	circ := circuit.New(l.NumQubits())
	Multiplier(circ, l.A, l.B, l.C, l.CarryAnc)
	return circ
}

// BuildDivider returns the complete division circuit for the layout.
func BuildDivider(l DividerLayout) *circuit.Circuit {
	circ := circuit.New(l.NumQubits())
	Divider(circ, l)
	return circ
}
