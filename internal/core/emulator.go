// Package core implements the paper's primary contribution: the quantum
// computer emulator. Where a simulator executes every elementary gate of a
// compiled circuit against the 2^n state vector, the emulator recognises
// high-level subroutines and replaces them with classical shortcuts:
//
//   - classical (reversible) functions  -> basis-state permutations (§3.1)
//   - quantum Fourier transform         -> classical FFT           (§3.2)
//   - quantum phase estimation          -> repeated squaring or
//     eigendecomposition of the dense operator                     (§3.3)
//   - repeated measurements             -> exact expectation values (§3.4)
//
// The emulator still executes ordinary gates through the optimised
// simulator kernels, so a program can freely mix gate-level and emulated
// operations on one state.
package core

import (
	"fmt"

	"repro/internal/bitops"
	"repro/internal/circuit"
	"repro/internal/fft"
	"repro/internal/gates"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// Emulator is a quantum-computer emulator over an n-qubit register.
type Emulator struct {
	state *statevec.State
}

// New returns an emulator with the register initialised to |0...0>.
func New(n uint) *Emulator {
	st := statevec.New(n)
	return Wrap(st)
}

// Wrap returns an emulator operating on an existing state.
func Wrap(st *statevec.State) *Emulator {
	return &Emulator{state: st}
}

// State returns the backing state vector.
func (e *Emulator) State() *statevec.State { return e.state }

// NumQubits returns the register width.
func (e *Emulator) NumQubits() uint { return e.state.NumQubits() }

// ApplyGate executes a single elementary gate through the specialised
// kernels; emulation has no shortcut for a lone gate.
func (e *Emulator) ApplyGate(g gates.Gate) { e.state.ApplyGate(g) }

// Run executes a gate-level circuit on the state, gate by gate.
func (e *Emulator) Run(c *circuit.Circuit) { c.Run(e.state) }

// --- Section 3.1: classical functions -------------------------------------

// ApplyClassicalFunc applies the basis-state permutation |x> -> |f(x)> over
// the whole register. f must be a bijection on [0, 2^n); this is the
// emulator's generic entry point for classical reversible functions.
func (e *Emulator) ApplyClassicalFunc(f func(uint64) uint64) {
	e.state.ApplyPermutation(f)
}

// AddInto emulates the Cuccaro adder's action (b += a mod 2^w) on two
// w-bit register fields located at bit offsets aPos and bPos.
func (e *Emulator) AddInto(aPos, bPos, w uint) {
	e.checkField(aPos, w)
	e.checkField(bPos, w)
	mask := bitops.Mask(w)
	e.state.ApplyPermutation(func(i uint64) uint64 {
		a := (i >> aPos) & mask
		b := (i >> bPos) & mask
		return bitops.DepositBits(i, bPos, w, b+a)
	})
}

// Multiply emulates the shift-and-add multiplier: the m-bit field at cPos
// becomes c + a*b (mod 2^m), exactly the permutation the reversible circuit
// of Figure 1 implements, evaluated with one hardware multiply per basis
// state instead of O(m^2) controlled adders on the state vector.
func (e *Emulator) Multiply(aPos, bPos, cPos, m uint) {
	e.checkField(aPos, m)
	e.checkField(bPos, m)
	e.checkField(cPos, m)
	mask := bitops.Mask(m)
	e.state.ApplyPermutation(func(i uint64) uint64 {
		a := (i >> aPos) & mask
		b := (i >> bPos) & mask
		c := (i >> cPos) & mask
		return bitops.DepositBits(i, cPos, m, c+a*b)
	})
}

// DivideLayout mirrors revlib.DividerLayout at the emulator level: the
// register fields of the restoring divider. See revlib for the contract
// (a, b, 0) -> (a mod b, b, a div b).
type DivideLayout struct {
	M    uint // operand width
	RPos uint // 2m-bit working register (dividend in low half)
	BPos uint // m-bit divisor
	QPos uint // m-bit quotient
}

// Divide emulates the restoring-division circuit. To guarantee the map is
// the exact permutation the gate-level divider implements on every basis
// state (including invalid inputs such as b = 0 or dirty work qubits), it
// executes the same word-level algorithm the circuit encodes — m windowed
// subtract / conditional-restore steps — at O(m) word operations per basis
// state instead of thousands of Toffoli applications over the state vector.
func (e *Emulator) Divide(l DivideLayout) {
	m := l.M
	e.checkField(l.RPos, 2*m)
	e.checkField(l.BPos, m)
	e.checkField(l.QPos, m)
	if m == 0 {
		return
	}
	maskM := bitops.Mask(m)
	maskWin := bitops.Mask(m + 1)
	e.state.ApplyPermutation(func(i uint64) uint64 {
		r := (i >> l.RPos) & bitops.Mask(2*m)
		b := (i >> l.BPos) & maskM
		q := (i >> l.QPos) & maskM
		for step := int(m) - 1; step >= 0; step-- {
			sh := uint(step)
			window := (r >> sh) & maskWin
			window = (window - b) & maskWin
			qi := (q >> sh) & 1
			qi ^= window >> m // copy the sign bit
			if qi&1 == 1 {
				window = (window + b) & maskWin
			}
			qi ^= 1
			q = bitops.DepositBits(q, sh, 1, qi)
			r = bitops.DepositBits(r, sh, m+1, window)
		}
		out := bitops.DepositBits(i, l.RPos, 2*m, r)
		out = bitops.DepositBits(out, l.QPos, m, q)
		return out
	})
}

// ApplyUnaryFunc applies the standard out-of-place function oracle
// |a>|c> -> |a>|c XOR f(a)|: a permutation for arbitrary (non-invertible)
// f, which is how irreversible math functions (sin, exp, ...) are carried
// onto a quantum register.
func (e *Emulator) ApplyUnaryFunc(aPos, aWidth, cPos, cWidth uint, f func(uint64) uint64) {
	e.checkField(aPos, aWidth)
	e.checkField(cPos, cWidth)
	aMask := bitops.Mask(aWidth)
	cMask := bitops.Mask(cWidth)
	e.state.ApplyPermutation(func(i uint64) uint64 {
		a := (i >> aPos) & aMask
		return i ^ ((f(a) & cMask) << cPos)
	})
}

// ApplyPhaseOracle multiplies basis state |x> by exp(i*theta(x)): the
// diagonal-unitary shortcut used for oracles and for Grover's sign flip.
func (e *Emulator) ApplyPhaseOracle(phase func(uint64) complex128) {
	e.state.ApplyDiagonalFunc(phase)
}

// --- Section 3.2: quantum Fourier transform --------------------------------

// QFT performs the quantum Fourier transform of the paper's Eq. 4 on the
// whole register via the classical FFT: amplitudes transform as
// a_l <- 2^{-n/2} sum_k a_k exp(2 pi i k l / 2^n).
func (e *Emulator) QFT() { e.QFTRange(0, e.NumQubits()) }

// InverseQFT performs the inverse transform on the whole register.
func (e *Emulator) InverseQFT() { e.InverseQFTRange(0, e.NumQubits()) }

// QFTRange applies the QFT to the width-qubit field starting at bit pos,
// batching an FFT along that index axis for every setting of the remaining
// qubits.
func (e *Emulator) QFTRange(pos, width uint) { e.qftRange(pos, width, false) }

// InverseQFTRange applies the inverse QFT to a register field.
func (e *Emulator) InverseQFTRange(pos, width uint) { e.qftRange(pos, width, true) }

func (e *Emulator) qftRange(pos, width uint, inverse bool) {
	e.checkField(pos, width)
	if width == 0 {
		return
	}
	// Plans are shared process-wide by size (fft.NewPlan), so repeated
	// transforms — phase estimation applies the QFT many times — build
	// their tables once.
	p, err := fft.NewPlan(uint64(1) << width)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	p.TransformField(e.state.Amplitudes(), pos, inverse, e.state.Workers())
}

// --- Section 3.4: measurement ----------------------------------------------

// Probabilities returns the full measurement distribution in one pass —
// the emulator's replacement for repeated hardware runs.
func (e *Emulator) Probabilities() []float64 { return e.state.Probabilities() }

// Expectation returns the exact expectation of a diagonal observable.
func (e *Emulator) Expectation(obs func(uint64) float64) float64 {
	return e.state.ExpectationDiagonal(obs)
}

// Sample draws a single hardware-style measurement outcome.
func (e *Emulator) Sample(src *rng.Source) uint64 { return e.state.Sample(src) }

// Measure collapses qubit k as a projective measurement.
func (e *Emulator) Measure(k uint, src *rng.Source) uint64 { return e.state.Measure(k, src) }

func (e *Emulator) checkField(pos, width uint) {
	if pos+width > e.NumQubits() {
		panic(fmt.Sprintf("core: field [%d,%d) exceeds register width %d",
			pos, pos+width, e.NumQubits()))
	}
}
