package statevec

import (
	"repro/internal/bitops"
)

// checkQubitPair panics when either qubit of a two-qubit kernel is out
// of range, with the same message the inline checks used to raise. It
// is the validation gate the kernelvalidate analyzer requires before a
// kernel's first amplitude access.
func (s *State) checkQubitPair(q0, q1 uint) {
	if q0 >= s.n || q1 >= s.n {
		panic("statevec: qubit out of range")
	}
}

// ApplyMatrix4 applies a dense 4x4 unitary to the qubit pair (q0, q1),
// where the matrix acts on the two-bit value (bit of q1 << 1) | bit of q0.
// General two-qubit gates (arbitrary couplers, fSim-style gates, fused
// controlled pairs) run through this kernel; the structured special cases
// (CNOT, CZ, CR) stay on the cheaper specialised paths.
//
//qemu:hotpath
func (s *State) ApplyMatrix4(m *[16]complex128, q0, q1 uint) {
	if q0 == q1 {
		panic("statevec: ApplyMatrix4 requires distinct qubits")
	}
	s.checkQubitPair(q0, q1)
	s.matrix4(m, q0, q1)
}

// matrix4 is the width-2 dense sweep behind ApplyMatrix4 and
// ApplyMatrixN, for a validated pair of distinct qubits: the shared
// assembly sweep where one runs, the tuned pure-Go butterfly otherwise.
func (s *State) matrix4(m *[16]complex128, q0, q1 uint) {
	if denseBody != bodyGo {
		qubits := [2]uint{q0, q1}
		s.denseSweep(m[:], qubits[:])
		return
	}
	lo, hi := q0, q1
	if lo > hi {
		lo, hi = hi, lo
	}
	quarter := s.Dim() >> 2
	b0 := uint64(1) << q0
	b1 := uint64(1) << q1
	if s.parallelism(quarter) <= 1 {
		matrix4Chunk(s.amp, m, lo, hi, b0, b1, 0, quarter)
		return
	}
	s.parallelRange(quarter, func(start, end uint64) {
		matrix4Chunk(s.amp, m, lo, hi, b0, b1, start, end)
	})
}

// matrix4Chunk is the pure-Go body at width 2: the dense 4x4 butterfly
// over flat indices [start, end); lo < hi are the insertion positions,
// b0/b1 the qubit bit masks.
func matrix4Chunk(amp []complex128, m *[16]complex128, lo, hi uint, b0, b1, start, end uint64) {
	for c := start; c < end; c++ {
		// Spread the counter around both qubit positions (ascending).
		base := bitops.InsertZeroBit(bitops.InsertZeroBit(c, lo), hi)
		i00 := base
		i01 := base | b0
		i10 := base | b1
		i11 := base | b0 | b1
		a00, a01 := amp[i00], amp[i01]
		a10, a11 := amp[i10], amp[i11]
		amp[i00] = m[0]*a00 + m[1]*a01 + m[2]*a10 + m[3]*a11
		amp[i01] = m[4]*a00 + m[5]*a01 + m[6]*a10 + m[7]*a11
		amp[i10] = m[8]*a00 + m[9]*a01 + m[10]*a10 + m[11]*a11
		amp[i11] = m[12]*a00 + m[13]*a01 + m[14]*a10 + m[15]*a11
	}
}

// ApplySwap exchanges qubits q0 and q1 by swapping amplitude pairs whose
// two bits differ — a quarter of the state moves, no arithmetic.
//
//qemu:hotpath
func (s *State) ApplySwap(q0, q1 uint) {
	if q0 == q1 {
		return
	}
	s.checkQubitPair(q0, q1)
	lo, hi := q0, q1
	if lo > hi {
		lo, hi = hi, lo
	}
	quarter := s.Dim() >> 2
	b0 := uint64(1) << q0
	b1 := uint64(1) << q1
	if s.parallelism(quarter) <= 1 {
		swapChunk(s.amp, lo, hi, b0, b1, 0, quarter)
		return
	}
	s.parallelRange(quarter, func(start, end uint64) {
		swapChunk(s.amp, lo, hi, b0, b1, start, end)
	})
}

// swapChunk exchanges the 01/10 amplitude pairs over flat indices
// [start, end).
func swapChunk(amp []complex128, lo, hi uint, b0, b1, start, end uint64) {
	for c := start; c < end; c++ {
		base := bitops.InsertZeroBit(bitops.InsertZeroBit(c, lo), hi)
		i01 := base | b0
		i10 := base | b1
		amp[i01], amp[i10] = amp[i10], amp[i01]
	}
}
