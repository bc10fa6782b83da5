package statevec

import (
	"math/bits"

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

// ApplyControlledMatrix2 applies m to qubit k on the subspace where every
// control qubit reads 1. Controls must not include k; nil controls apply m
// to every pair. It walks only the 2^(n-1-c) pairs whose c distinct
// controls are satisfied, with two reads, two writes and a full complex
// 2x2 multiply per pair. With no controls it is the generic kernel a
// structure-blind simulator (the qHiPSTER-class baseline) runs for every
// gate.
//
//qemu:hotpath
func (s *State) ApplyControlledMatrix2(m gates.Matrix2, k uint, controls []uint) {
	s.checkTargetControls(k, controls)
	cmask, qmask, groups := s.controlGroups(k, controls)
	if s.parallelism(groups) <= 1 {
		ctrlMatrix2Chunk(s.amp, m, cmask, qmask, 0, groups)
		return
	}
	s.parallelRange(groups, func(start, end uint64) {
		ctrlMatrix2Chunk(s.amp, m, cmask, qmask, start, end)
	})
}

// controlGroups returns the index masks of a validated controlled gate —
// the controls alone, and the controls with the target — and the number
// of groups the controlled kernels walk: one per assignment of the other
// qubits. Group c's pair is base|cmask and base|qmask, where base is c
// spread around qmask's bits (spreadAround) and the group after base is
// nextBase(base, qmask), so no index is tested against the controls.
func (s *State) controlGroups(k uint, controls []uint) (cmask, qmask, groups uint64) {
	cmask = bitops.ControlMask(controls)
	qmask = cmask | 1<<k
	return cmask, qmask, s.Dim() >> bits.OnesCount64(qmask)
}

// spreadAround returns c with a zero bit inserted at every bit of mask:
// the base index of group c of a kernel that holds mask's qubits fixed.
func spreadAround(c, mask uint64) uint64 {
	for m := mask; m != 0; m &= m - 1 {
		c = bitops.InsertZeroBit(c, uint(bits.TrailingZeros64(m)))
	}
	return c
}

// nextBase steps a group base to the following group's: with mask's bits
// filled in, adding one carries across them, and clearing them again
// leaves the incremented counter spread around the holes. A chunk pays
// spreadAround once and this per group.
func nextBase(base, mask uint64) uint64 {
	return ((base | mask) + 1) &^ mask
}

// ctrlMatrix2Chunk runs the 2x2 butterfly over the control-satisfied pairs
// of groups [start, end). The kernels dispatch to chunk functions like
// this one instead of closing over their parameters so the serial path —
// and the per-chunk work on the parallel path — costs zero allocations: a
// closure handed to par.For escapes and would otherwise heap-allocate on
// every kernel call, serial or not.
//
//qemu:hotpath
func ctrlMatrix2Chunk(amp []complex128, m gates.Matrix2, cmask, qmask, start, end uint64) {
	base := spreadAround(start, qmask)
	for c := start; c < end; c++ {
		i0, i1 := base|cmask, base|qmask
		a0, a1 := amp[i0], amp[i1]
		amp[i0] = m[0]*a0 + m[1]*a1
		amp[i1] = m[2]*a0 + m[3]*a1
		base = nextBase(base, qmask)
	}
}

// ApplyControlledDiag applies diag(d0, d1) on qubit k conditioned on the
// controls (nil controls: on every amplitude): one multiply per amplitude,
// no pairing, no swaps. It walks only the amplitudes whose c distinct
// controls are satisfied: all of the state with no control, a half for
// one, a quarter for two. An entry equal to exactly 1 is skipped, so the
// phase shift (d0 == 1) touches only the amplitudes whose target bit is 1
// as well — a half of the state with no control, a quarter for one, an
// eighth for two: the "read and write only a quarter of the state"
// optimisation of Section 3.2.
//
//qemu:hotpath
func (s *State) ApplyControlledDiag(d0, d1 complex128, k uint, controls []uint) {
	s.checkTargetControls(k, controls)
	if d0 == 1 && d1 == 1 {
		return
	}
	cmask, qmask, groups := s.controlGroups(k, controls)
	if s.parallelism(groups) <= 1 {
		ctrlDiagChunk(s.amp, d0, d1, cmask, qmask, 0, groups)
		return
	}
	s.parallelRange(groups, func(start, end uint64) {
		ctrlDiagChunk(s.amp, d0, d1, cmask, qmask, start, end)
	})
}

// ctrlDiagChunk scales the control-satisfied amplitudes of groups
// [start, end) by diag(d0, d1), skipping a branch whose entry is exactly 1;
// the caller has returned on the identity.
//
//qemu:hotpath
func ctrlDiagChunk(amp []complex128, d0, d1 complex128, cmask, qmask, start, end uint64) {
	base := spreadAround(start, qmask)
	switch {
	case d0 == 1:
		for c := start; c < end; c++ {
			amp[base|qmask] *= d1
			base = nextBase(base, qmask)
		}
	case d1 == 1:
		for c := start; c < end; c++ {
			amp[base|cmask] *= d0
			base = nextBase(base, qmask)
		}
	default:
		for c := start; c < end; c++ {
			amp[base|cmask] *= d0
			amp[base|qmask] *= d1
			base = nextBase(base, qmask)
		}
	}
}

// ApplyControlledX applies a (multi-)controlled NOT by swapping the
// amplitude pairs whose controls are satisfied — no complex arithmetic at
// all, where the generic kernel spends a full 2x2 complex multiply per
// pair — and walks only those pairs: all of the state with no control, a
// quarter for one. X, CNOT and Toffoli all land here.
//
//qemu:hotpath
func (s *State) ApplyControlledX(k uint, controls []uint) {
	s.checkTargetControls(k, controls)
	cmask, qmask, groups := s.controlGroups(k, controls)
	if s.parallelism(groups) <= 1 {
		ctrlXChunk(s.amp, cmask, qmask, 0, groups)
		return
	}
	s.parallelRange(groups, func(start, end uint64) {
		ctrlXChunk(s.amp, cmask, qmask, start, end)
	})
}

// ctrlXChunk swaps the control-satisfied pairs of groups [start, end).
//
//qemu:hotpath
func ctrlXChunk(amp []complex128, cmask, qmask, start, end uint64) {
	base := spreadAround(start, qmask)
	for c := start; c < end; c++ {
		i0, i1 := base|cmask, base|qmask
		amp[i0], amp[i1] = amp[i1], amp[i0]
		base = nextBase(base, qmask)
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
