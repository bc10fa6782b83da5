package statevec

import (
	"repro/internal/bitops"
	"repro/internal/gates"
)

// CheckTargetControls validates a (target, controls) pair against an
// n-qubit register exactly as the single-qubit kernels do: the target must
// be in range, every control must be in range and distinct from the
// target. It is exported so sharded owners of the state (internal/cluster)
// can enforce the identical contract — same panics, same messages — on
// qubits the per-shard kernels never see (node-selecting qubits).
func CheckTargetControls(n uint, k uint, controls []uint) {
	if k >= n {
		panic("statevec: target qubit out of range")
	}
	for _, c := range controls {
		if c == k {
			panic("statevec: control equals target")
		}
		if c >= n {
			panic("statevec: control qubit out of range")
		}
	}
}

// checkTargetControls validates a (target, controls) pair for the
// single-qubit kernels. Every controlled kernel applies the same contract,
// so an out-of-range control panics instead of silently producing a mask
// bit that can never match.
func (s *State) checkTargetControls(k uint, controls []uint) {
	CheckTargetControls(s.n, k, controls)
}

// checkTarget panics when the target qubit k is out of range. Every
// single-qubit kernel calls it (or a sibling check* helper) before its
// first amplitude access — the contract the kernelvalidate analyzer
// enforces — so all kernels fail identically, before any state is
// touched.
func (s *State) checkTarget(k uint) {
	if k >= s.n {
		panic("statevec: target qubit out of range")
	}
}

// ApplyMatrix2 applies the dense 2x2 unitary m to qubit k. This is the
// generic kernel a structure-blind simulator (the qHiPSTER-class baseline)
// uses for every gate: two reads, two writes and a full complex 2x2
// multiply per amplitude pair.
//
//qemu:hotpath
func (s *State) ApplyMatrix2(m gates.Matrix2, k uint) {
	s.checkTarget(k)
	half := s.Dim() >> 1
	stride := uint64(1) << k
	if s.parallelism(half) <= 1 {
		matrix2Chunk(s.amp, m, k, stride, 0, half)
		return
	}
	s.parallelRange(half, func(start, end uint64) {
		matrix2Chunk(s.amp, m, k, stride, start, end)
	})
}

// matrix2Chunk runs the dense 2x2 butterfly over flat indices
// [start, end). The kernels dispatch to chunk functions like this one
// instead of closing over their parameters so the serial path — and
// the per-chunk work on the parallel path — costs zero allocations: a
// closure handed to the worker pool escapes and would otherwise
// heap-allocate on every kernel call, serial or not.
func matrix2Chunk(amp []complex128, m gates.Matrix2, k uint, stride, start, end uint64) {
	for c := start; c < end; c++ {
		i0 := bitops.InsertZeroBit(c, k)
		i1 := i0 | stride
		a0, a1 := amp[i0], amp[i1]
		amp[i0] = m[0]*a0 + m[1]*a1
		amp[i1] = m[2]*a0 + m[3]*a1
	}
}

// ApplyControlledMatrix2 applies m to qubit k on the subspace where every
// control qubit reads 1. Controls must not include k.
//
//qemu:hotpath
func (s *State) ApplyControlledMatrix2(m gates.Matrix2, k uint, controls []uint) {
	if len(controls) == 0 {
		s.ApplyMatrix2(m, k)
		return
	}
	s.checkTargetControls(k, controls)
	cmask := bitops.ControlMask(controls)
	half := s.Dim() >> 1
	stride := uint64(1) << k
	if s.parallelism(half) <= 1 {
		ctrlMatrix2Chunk(s.amp, m, k, stride, cmask, 0, half)
		return
	}
	s.parallelRange(half, func(start, end uint64) {
		ctrlMatrix2Chunk(s.amp, m, k, stride, cmask, start, end)
	})
}

// ctrlMatrix2Chunk is matrix2Chunk restricted to pairs whose control
// bits are all set.
func ctrlMatrix2Chunk(amp []complex128, m gates.Matrix2, k uint, stride, cmask, start, end uint64) {
	for c := start; c < end; c++ {
		i0 := bitops.InsertZeroBit(c, k)
		if i0&cmask != cmask {
			continue
		}
		i1 := i0 | stride
		a0, a1 := amp[i0], amp[i1]
		amp[i0] = m[0]*a0 + m[1]*a1
		amp[i1] = m[2]*a0 + m[3]*a1
	}
}

// ApplyX applies a NOT to qubit k by swapping amplitude pairs — no complex
// arithmetic at all. One of the specialised kernels that distinguish the
// paper's simulator from the generic baseline.
//
//qemu:hotpath
func (s *State) ApplyX(k uint) {
	s.checkTarget(k)
	half := s.Dim() >> 1
	stride := uint64(1) << k
	if s.parallelism(half) <= 1 {
		xChunk(s.amp, k, stride, 0, half)
		return
	}
	s.parallelRange(half, func(start, end uint64) {
		xChunk(s.amp, k, stride, start, end)
	})
}

// xChunk swaps the amplitude pairs of a NOT over flat indices
// [start, end).
func xChunk(amp []complex128, k uint, stride, start, end uint64) {
	for c := start; c < end; c++ {
		i0 := bitops.InsertZeroBit(c, k)
		i1 := i0 | stride
		amp[i0], amp[i1] = amp[i1], amp[i0]
	}
}

// ApplyDiag applies the diagonal gate diag(d0, d1) to qubit k: a single
// multiply per amplitude, no pairing, no swaps. Entries equal to exactly 1
// are skipped entirely, so a phase gate touches only half the vector — this
// is the "read and write only a quarter of the state" optimisation of
// Section 3.2 once a control is added.
//
//qemu:hotpath
func (s *State) ApplyDiag(d0, d1 complex128, k uint) {
	s.checkTarget(k)
	half := s.Dim() >> 1
	stride := uint64(1) << k
	scale0 := d0 != 1
	scale1 := d1 != 1
	if !scale0 && !scale1 {
		return
	}
	if s.parallelism(half) <= 1 {
		diagChunk(s.amp, d0, d1, k, stride, scale0, scale1, 0, half)
		return
	}
	s.parallelRange(half, func(start, end uint64) {
		diagChunk(s.amp, d0, d1, k, stride, scale0, scale1, start, end)
	})
}

// diagChunk scales the selected branches of diag(d0, d1) over flat
// indices [start, end).
func diagChunk(amp []complex128, d0, d1 complex128, k uint, stride uint64, scale0, scale1 bool, start, end uint64) {
	for c := start; c < end; c++ {
		i0 := bitops.InsertZeroBit(c, k)
		if scale0 {
			amp[i0] *= d0
		}
		if scale1 {
			amp[i0|stride] *= d1
		}
	}
}

// ApplyControlledDiag applies diag(d0, d1) on qubit k conditioned on the
// controls. For the conditional phase shift (d0 == 1) only the amplitudes
// with target bit 1 AND all control bits 1 are touched: a quarter of the
// state for one control, an eighth for two, and so on.
//
//qemu:hotpath
func (s *State) ApplyControlledDiag(d0, d1 complex128, k uint, controls []uint) {
	if len(controls) == 0 {
		s.ApplyDiag(d0, d1, k)
		return
	}
	s.checkTargetControls(k, controls)
	cmask := bitops.ControlMask(controls)
	half := s.Dim() >> 1
	stride := uint64(1) << k
	scale0 := d0 != 1
	scale1 := d1 != 1
	if !scale0 && !scale1 {
		return
	}
	if s.parallelism(half) <= 1 {
		ctrlDiagChunk(s.amp, d0, d1, k, stride, cmask, scale0, scale1, 0, half)
		return
	}
	s.parallelRange(half, func(start, end uint64) {
		ctrlDiagChunk(s.amp, d0, d1, k, stride, cmask, scale0, scale1, start, end)
	})
}

// ctrlDiagChunk is diagChunk restricted to indices whose control bits
// are all set.
func ctrlDiagChunk(amp []complex128, d0, d1 complex128, k uint, stride, cmask uint64, scale0, scale1 bool, start, end uint64) {
	for c := start; c < end; c++ {
		i0 := bitops.InsertZeroBit(c, k)
		if i0&cmask != cmask {
			continue
		}
		if scale0 {
			amp[i0] *= d0
		}
		if scale1 {
			amp[i0|stride] *= d1
		}
	}
}

// ApplyControlledX applies a (multi-)controlled NOT by swapping the
// amplitude pairs whose controls are satisfied — no complex arithmetic at
// all, where the generic kernel spends a full 2x2 complex multiply per
// pair. CNOT and Toffoli both land here.
//
//qemu:hotpath
func (s *State) ApplyControlledX(k uint, controls []uint) {
	if len(controls) == 0 {
		s.ApplyX(k)
		return
	}
	s.checkTargetControls(k, controls)
	cmask := bitops.ControlMask(controls)
	half := s.Dim() >> 1
	stride := uint64(1) << k
	if s.parallelism(half) <= 1 {
		ctrlXChunk(s.amp, k, stride, cmask, 0, half)
		return
	}
	s.parallelRange(half, func(start, end uint64) {
		ctrlXChunk(s.amp, k, stride, cmask, start, end)
	})
}

// ctrlXChunk is xChunk restricted to pairs whose control bits are all
// set.
func ctrlXChunk(amp []complex128, k uint, stride, cmask, start, end uint64) {
	for c := start; c < end; c++ {
		i0 := bitops.InsertZeroBit(c, k)
		if i0&cmask != cmask {
			continue
		}
		i1 := i0 | stride
		amp[i0], amp[i1] = amp[i1], amp[i0]
	}
}

// ApplyHadamard applies H to qubit k with the multiply count minimised:
// one scale and one add/sub per output instead of a generic 2x2 product.
//
//qemu:hotpath
func (s *State) ApplyHadamard(k uint) {
	s.checkTarget(k)
	half := s.Dim() >> 1
	stride := uint64(1) << k
	if s.parallelism(half) <= 1 {
		hadamardChunk(s.amp, k, stride, 0, half)
		return
	}
	s.parallelRange(half, func(start, end uint64) {
		hadamardChunk(s.amp, k, stride, start, end)
	})
}

// hadamardChunk runs the scale-and-add/sub Hadamard butterfly over
// flat indices [start, end).
func hadamardChunk(amp []complex128, k uint, stride, start, end uint64) {
	const invSqrt2 = 0.7071067811865476
	for c := start; c < end; c++ {
		i0 := bitops.InsertZeroBit(c, k)
		i1 := i0 | stride
		a0, a1 := amp[i0], amp[i1]
		amp[i0] = complex(invSqrt2*(real(a0)+real(a1)), invSqrt2*(imag(a0)+imag(a1)))
		amp[i1] = complex(invSqrt2*(real(a0)-real(a1)), invSqrt2*(imag(a0)-imag(a1)))
	}
}

// ApplyGate dispatches g to the most specialised kernel available. This is
// the paper's "take advantage of the structure of gate matrices" strategy:
// diagonal and anti-diagonal gates never run the dense kernel.
func (s *State) ApplyGate(g gates.Gate) {
	switch g.Kind() {
	case gates.Identity:
		if g.Matrix[0] != 1 {
			s.ApplyControlledDiag(g.Matrix[0], g.Matrix[3], g.Target, g.Controls)
		}
	case gates.Diagonal:
		s.ApplyControlledDiag(g.Matrix[0], g.Matrix[3], g.Target, g.Controls)
	case gates.AntiDiagonal:
		if g.Matrix[1] == 1 && g.Matrix[2] == 1 {
			s.ApplyControlledX(g.Target, g.Controls)
			return
		}
		s.ApplyControlledMatrix2(g.Matrix, g.Target, g.Controls)
	default:
		if len(g.Controls) == 0 && g.Matrix == gates.MatH {
			s.ApplyHadamard(g.Target)
			return
		}
		s.ApplyControlledMatrix2(g.Matrix, g.Target, g.Controls)
	}
}

// ApplyGateGeneric applies g through the dense 2x2 kernel regardless of
// structure. The qHiPSTER-class baseline and the kernel-specialisation
// ablation use it.
func (s *State) ApplyGateGeneric(g gates.Gate) {
	s.ApplyControlledMatrix2(g.Matrix, g.Target, g.Controls)
}

// scratchBuf returns the State's out-of-place buffer, allocating it on
// first use. Its contents are unspecified.
func (s *State) scratchBuf() []complex128 {
	if uint64(len(s.scratch)) != s.Dim() {
		s.scratch = make([]complex128, s.Dim())
	}
	return s.scratch
}

// ApplyPermutation relabels basis states: amplitude at index i moves to
// index f(i). f must be a bijection on [0, 2^n); the classical-function
// emulation of Section 3.1 reduces reversible circuits to exactly this.
// The permutation is applied out of place into the State's scratch buffer,
// which is then swapped with the live amplitude slice — no allocation
// after the first call. Because every destination index is written exactly
// once for a bijection, the scratch buffer is not cleared first; a
// non-bijective f leaves unspecified stale values at unreached indices.
func (s *State) ApplyPermutation(f func(uint64) uint64) {
	dim := s.Dim()
	out := s.scratchBuf()
	if s.parallelism(dim) <= 1 {
		// Closure-free serial path: together with the buffer swap this
		// makes a steady-state permutation allocation-free.
		for i, a := range s.amp {
			out[f(uint64(i))] = a
		}
	} else {
		s.parallelRange(dim, func(start, end uint64) {
			for i := start; i < end; i++ {
				out[f(i)] = s.amp[i]
			}
		})
	}
	s.amp, s.scratch = out, s.amp
}
