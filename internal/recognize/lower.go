package recognize

import (
	"repro/internal/bitops"
	"repro/internal/fft"
)

// This file is the exported lowering surface of a recognised Op: typed
// accessors that let execution engines other than the single-node state
// vector (the distributed engine of internal/cluster, the compile pipeline
// of internal/backend) execute a shortcut on their own substrate. Op.Apply
// keeps its specialised single-node fast paths; the accessors expose the
// same semantics in substrate-neutral form:
//
//   - QFT: the Fourier-family ops as (field, direction, bit-order) plus a
//     reusable fft.Plan — a distributed engine lowers a field wider than
//     a shard to the four-step FFT, moving only its node bits (two
//     all-to-alls, the output order left in the placement), and a narrow
//     field to per-shard transforms after one placement remap.
//   - Permutation: the arithmetic family (add, sub, addc, mul, div) as one
//     classical bijection on basis indices — on a cluster, a single
//     all-to-all (the paper's Section 4.2 observation).
//   - DiagTable, PhaseFlip: the diagonal family as a table over the
//     support qubits or one sign-flipped pattern — communication-free
//     anywhere.
//   - ReflectUniform: the Grover diffusion I - 2|s><s|, which needs only a
//     global amplitude sum (one scalar allreduce).

// DefaultDiagCutoffGates is the default emulation cost-model cutoff: a
// recognised diagonal run with fewer gates than this, on a support the
// execution target's fusion width already covers, stays on the fused
// gate path — the fused kernel executes it in the same single sweep, so
// dispatching it buys no kernel work and splits the surrounding fusion
// blocks. Calibrated loosely; at equal sweep counts the two paths tie.
const DefaultDiagCutoffGates = 32

// KeepAboveDiagCutoff returns a Plan.Filter predicate implementing the
// diagonal cost model: every op passes except diagonal runs with fewer
// than minGates gates whose support fits in maxWidth qubits. backend.Compile
// applies it, for the fused and the cluster targets alike.
func KeepAboveDiagCutoff(minGates int, maxWidth uint) func(*Op) bool {
	return func(op *Op) bool {
		if op.kind != opDiag {
			return true
		}
		return op.GateCount() >= minGates || uint(len(op.qubits)) > maxWidth
	}
}

// QFTSpec describes a Fourier-family op: the unitary acting on the
// contiguous qubit field [Pos, Pos+Width), optionally inverted, and — for
// the noswap variants — composed with the field's bit-reversal permutation
// on the output (forward) or input (inverse) side.
type QFTSpec struct {
	Pos, Width      uint
	Inverse, NoSwap bool
	// Plan is the 2^Width transform plan, safe for concurrent use.
	Plan *fft.Plan
}

// QFT returns the Fourier parameters of a qft-family op; ok is false for
// every other kind.
func (op *Op) QFT() (QFTSpec, bool) {
	if op.kind != opQFT {
		return QFTSpec{}, false
	}
	return QFTSpec{Pos: op.pos, Width: op.width, Inverse: op.inverse,
		NoSwap: op.noswap, Plan: op.plan}, true
}

// Permutation returns the classical bijection on basis indices implemented
// by a permutation-family op (add, sub, addc, mul, div); ok is false for
// every other kind. The closure is safe for concurrent calls.
func (op *Op) Permutation() (func(uint64) uint64, bool) {
	switch op.kind {
	case opAdd, opSub:
		sub := op.kind == opSub
		readA, _ := fieldIO(op.regA)
		readB, writeB := fieldIO(op.regB)
		carry := op.carry
		mask := bitops.Mask(uint(len(op.regB)))
		return func(i uint64) uint64 {
			av := readA(i) + ((i >> carry) & 1)
			bv := readB(i)
			if sub {
				bv = (bv - av) & mask
			} else {
				bv = (bv + av) & mask
			}
			return writeB(i, bv)
		}, true
	case opAddc:
		readA, _ := fieldIO(op.regA)
		readB, writeB := fieldIO(op.regB)
		carry, carryOut := op.carry, op.bz
		w := uint(len(op.regB))
		mask := bitops.Mask(w)
		return func(i uint64) uint64 {
			s := readA(i) + readB(i) + ((i >> carry) & 1)
			i = writeB(i, s&mask)
			return i ^ (((s >> w) & 1) << carryOut)
		}, true
	case opMul:
		// revlib.Multiplier's controlled adders of shrinking width sum to
		// c + a·(b + carry) mod 2^m on every basis state, a set carry
		// ancilla included.
		readA, _ := fieldIO(op.regA)
		readB, _ := fieldIO(op.regB)
		readC, writeC := fieldIO(op.regC)
		carry := op.carry
		return func(i uint64) uint64 {
			return writeC(i, readC(i)+readA(i)*(readB(i)+((i>>carry)&1)))
		}, true
	case opDiv:
		return op.divFunc(), true
	}
	return nil, false
}

// DiagTable returns the table of a diagonal-run op: amplitude i picks up
// d[x], where bit j of x is bit qubits[j] of i and qubits ascend. ok is
// false for every other kind, phase flips included (see PhaseFlip). The
// slices are the op's own and must not be modified.
func (op *Op) DiagTable() (d []complex128, qubits []uint, ok bool) {
	if op.kind != opDiag {
		return nil, nil, false
	}
	return op.diag, op.qubits, true
}

// PhaseFlip returns the pattern of a phase-flip op: the amplitudes whose
// bits at qubits (ascending, LSB first) spell value change sign. ok is
// false for every other kind. The slice is the op's own.
func (op *Op) PhaseFlip() (qubits []uint, value uint64, ok bool) {
	if op.kind != opPhaseFlip {
		return nil, 0, false
	}
	return op.qubits, op.value, true
}

// ReflectUniform reports whether the op is the whole-register Householder
// reflection about the uniform state (the Grover diffusion shortcut).
func (op *Op) ReflectUniform() bool { return op.kind == opReflect }

// Support returns a copy of the sorted qubit set the op touches.
func (op *Op) Support() []uint { return op.support() }

// GateCount returns the number of circuit gates the op replaces.
func (op *Op) GateCount() int { return op.Hi - op.Lo }

// divFunc returns the restoring-division permutation.
func (op *Op) divFunc() func(uint64) uint64 {
	m := op.m
	readR, writeR := fieldIO(op.regR)
	readB, _ := fieldIO(op.regB)
	readQ, writeQ := fieldIO(op.regQ)
	bzBit, carry := op.bz, op.carry
	maskWin := bitops.Mask(m + 1)
	return func(i uint64) uint64 {
		rv := readR(i)
		qv := readQ(i)
		// What each step subtracts: the divisor zero-extended by its
		// ancilla, plus the adder's carry-in ancilla.
		sub := (readB(i) | ((i>>bzBit)&1)<<m) + (i>>carry)&1
		for step := int(m) - 1; step >= 0; step-- {
			sh := uint(step)
			window := (rv >> sh) & maskWin
			window = (window - sub) & maskWin
			qi := (qv >> sh) & 1
			qi ^= window >> m // copy the sign bit
			// The restore, conditioned on q_i: add sub back or zero.
			window = (window + sub&-qi) & maskWin
			qi ^= 1
			qv = bitops.DepositBits(qv, sh, 1, qi)
			rv = bitops.DepositBits(rv, sh, m+1, window)
		}
		return writeQ(writeR(i, rv), qv)
	}
}
