package statevec

import (
	"fmt"
	"math/bits"

	"repro/internal/bitops"
)

// MaxMatrixNQubits bounds the width of a generic multi-qubit block. At
// width 8 the dense block is 256x256 (one MiB of complex128) and each
// amplitude costs 2^8 multiplies per sweep; beyond that a fused block can
// no longer beat replaying the individual gates, so wider requests are
// rejected early instead of silently thrashing.
const MaxMatrixNQubits = 8

// checkMatrixN validates a (matrix, qubits) pair for the generic kernels
// and returns the block width. The matrix must be a dense row-major
// 2^w x 2^w block over w distinct in-range qubits.
func (s *State) checkMatrixN(m []complex128, qubits []uint) uint {
	w := uint(len(qubits))
	if w == 0 {
		panic("statevec: ApplyMatrixN with no qubits")
	}
	if w > MaxMatrixNQubits {
		panic(fmt.Sprintf("statevec: block width %d exceeds MaxMatrixNQubits=%d", w, MaxMatrixNQubits))
	}
	dim := 1 << w
	if len(m) != dim*dim {
		panic(fmt.Sprintf("statevec: matrix has %d entries, want %d for %d qubits", len(m), dim*dim, w))
	}
	s.checkBlockQubits(qubits, "ApplyMatrixN")
	return w
}

// checkBlockQubits panics unless a block kernel's qubit list names
// distinct in-range qubits; kernel is the entry named in the message.
func (s *State) checkBlockQubits(qubits []uint, kernel string) {
	var seen uint64
	for _, q := range qubits {
		if q >= s.n {
			panic("statevec: qubit out of range")
		}
		if seen&(1<<q) != 0 {
			panic("statevec: duplicate qubit in " + kernel)
		}
		seen |= 1 << q
	}
}

// ApplyMatrixN applies a dense 2^w x 2^w unitary m (row-major) to the w
// qubits listed in qubits, in a single parallel sweep of the state vector.
// Bit j of the local 2^w-dimensional index corresponds to qubits[j], so the
// qubit order chooses the basis convention of the block; at w=1 it is
// ApplyMatrix2, at w=2 the tuned pair kernel (matrix4).
//
// This is the execution half of multi-qubit gate fusion (internal/fuse):
// a run of gates whose combined support fits in w qubits is folded into one
// such block, so the 2^n amplitudes are read and written once for the whole
// run instead of once per gate — the sweep-minimising strategy the paper
// applies to same-target single-qubit runs, generalised to k-qubit
// neighbourhoods. Cost per amplitude is 2^w complex multiplies, so wider
// blocks only pay off when they absorb enough gates; the scheduler makes
// that call, the kernel just executes it.
//
//qemu:hotpath
func (s *State) ApplyMatrixN(m []complex128, qubits []uint) {
	switch s.checkMatrixN(m, qubits) {
	case 1:
		// Delegate to the tuned pair kernel.
		s.ApplyMatrix2([4]complex128{m[0], m[1], m[2], m[3]}, qubits[0])
	case 2:
		// The two-qubit kernel picks the body at this width. Its local
		// value convention (bit of q1 << 1 | bit of q0) matches bit j =
		// qubits[j].
		s.matrix4((*[16]complex128)(m), qubits[0], qubits[1])
	default:
		s.denseSweep(m, qubits)
	}
}

// ApplyDiagN multiplies each amplitude by d[x], where x is the local
// 2^w value read off the listed qubits (bit j of x is qubits[j]). This is
// the diagonal special case of ApplyMatrixN: one multiply per amplitude in
// a single sweep regardless of how many phase gates were folded into d, so
// a fused run of CR/Rz/T gates costs what a single diagonal gate costs.
//
//qemu:hotpath
func (s *State) ApplyDiagN(d []complex128, qubits []uint) {
	s.checkDiagN(d, qubits)
	lay := s.layoutFor(qubits)
	groups := s.Dim() >> lay.w
	if s.parallelism(groups) <= 1 {
		diagBlockChunk(s.amp, d, lay, 0, groups)
		return
	}
	s.parallelRange(groups, func(start, end uint64) {
		diagBlockChunk(s.amp, d, lay, start, end)
	})
}

// diagBlockChunk scales the amplitudes of groups [start, end) by d.
func diagBlockChunk(amp, d []complex128, lay *blockLayout, start, end uint64) {
	offs := lay.offs[:len(d)]
	base := lay.groupBase(start)
	for c := start; c < end; c++ {
		for x, o := range offs {
			amp[base|o] *= d[x]
		}
		base = lay.nextGroup(base)
	}
}

// checkDiagN panics unless d and qubits describe a valid diagonal
// block: width in [1, MaxMatrixNQubits], 2^w diagonal entries, and
// distinct in-range qubits. The panic messages are the kernel's
// original inline ones; hoisting them into a helper satisfies the
// validate-before-amplitude-access contract kernelvalidate checks.
func (s *State) checkDiagN(d []complex128, qubits []uint) {
	w := uint(len(qubits))
	if w == 0 || w > MaxMatrixNQubits {
		panic("statevec: ApplyDiagN width out of range")
	}
	if len(d) != 1<<w {
		panic(fmt.Sprintf("statevec: diagonal has %d entries, want %d", len(d), 1<<w))
	}
	s.checkBlockQubits(qubits, "ApplyDiagN")
}

// blockLayout is the addressing of one 2^w block over the register,
// computed once per kernel call and shared by every chunk: the amplitudes
// of a group are amp[base|offs[x]], where base has zeros at the block's
// qubits and x is the local basis state. It is State-owned scratch, so a
// block kernel allocates nothing in steady state.
type blockLayout struct {
	w     uint
	qmask uint64 // the block's qubits as an index mask
	// offs[x] is the global-index offset of local basis state x: bit j of
	// x maps to qubit qubits[j]. Only the first 2^w entries are live.
	offs [1 << MaxMatrixNQubits]uint64
}

// layoutFor fills the State's block layout for a validated qubit list.
func (s *State) layoutFor(qubits []uint) *blockLayout {
	if s.block == nil {
		s.block = new(blockLayout)
	}
	lay := s.block
	lay.w = uint(len(qubits))
	lay.qmask = bitops.ControlMask(qubits)
	for x := 1; x < 1<<lay.w; x++ {
		lay.offs[x] = lay.offs[x&(x-1)] | 1<<qubits[bits.TrailingZeros(uint(x))]
	}
	return lay
}

// groupBase returns the base index of group c: c spread around the
// block's qubits, which read zero.
func (lay *blockLayout) groupBase(c uint64) uint64 {
	for m := lay.qmask; m != 0; m &= m - 1 {
		c = bitops.InsertZeroBit(c, uint(bits.TrailingZeros64(m)))
	}
	return c
}

// nextGroup steps a group base to the following group's: with the block's
// qubits filled in, adding one carries across them, and clearing them
// again leaves the incremented counter spread around the holes. A chunk
// pays groupBase once and this per group.
func (lay *blockLayout) nextGroup(base uint64) uint64 {
	return ((base | lay.qmask) + 1) &^ lay.qmask
}

// denseSweep is the shared dense block sweep behind ApplyMatrixN.
// Callers have validated (m, qubits) against the register
// (checkMatrixN): that validation, together with the
// chunk bounds parallelRange hands out (disjoint, within [0, groups)), is
// the whole memory-safety argument of the assembly body, which checks
// nothing itself.
func (s *State) denseSweep(m []complex128, qubits []uint) {
	lay := s.layoutFor(qubits)
	groups := s.Dim() >> lay.w
	if s.parallelism(groups) <= 1 {
		denseChunk(s.amp, m, lay, 0, groups)
		return
	}
	s.parallelRange(groups, func(start, end uint64) {
		denseChunk(s.amp, m, lay, start, end)
	})
}

// denseBodyKind names a body of the dense block sweep. The order is the
// order of what a host needs: every body below the host's own also runs
// there (the ZMM body's tails are the YMM body's), which is what lets the
// test suites count down from denseBody.
type denseBodyKind uint8

const (
	bodyGo     denseBodyKind = iota // denseChunkGo, matrix4Chunk: any host
	bodyAVX2                        // denseSweepAVX2: AVX2 and FMA3
	bodyAVX512                      // denseSweepAVX512: AVX-512F as well
)

func (b denseBodyKind) String() string {
	return [...]string{"go", "avx2", "avx512"}[b]
}

// denseChunk applies m to groups [start, end) of lay through the body
// this host runs (denseBody). The range check is the last guard in front
// of the unchecked assembly; a violation is a bug in the chunk planner.
func denseChunk(amp, m []complex128, lay *blockLayout, start, end uint64) {
	if start > end || end > uint64(len(amp))>>lay.w {
		panic("statevec: dense block chunk out of range")
	}
	if denseBody == bodyGo {
		denseChunkGo(amp, m, lay, start, end)
	} else {
		denseChunkAsm(amp, m, lay, start, end)
	}
}

// denseChunkGo is the pure-Go body: the fallback on hosts without
// AVX2/FMA and the oracle the assembly bodies are tested against. Gather the
// group, multiply four rows at a time, scatter in place.
func denseChunkGo(amp, m []complex128, lay *blockLayout, start, end uint64) {
	dim := 1 << lay.w
	offs := lay.offs[:dim]
	var tile [1 << MaxMatrixNQubits]complex128
	vec := tile[:dim]
	base := lay.groupBase(start)
	for c := start; c < end; c++ {
		for x, o := range offs {
			vec[x] = amp[base|o]
		}
		// Four rows at a time: independent accumulators break the
		// multiply-add dependency chain that otherwise serialises the
		// mat-vec at complex-FMA latency (dim >= 4 always holds here:
		// w=1 delegates to ApplyMatrix2).
		for r := 0; r < dim; r += 4 {
			r0 := m[(r+0)*dim : (r+1)*dim]
			r1 := m[(r+1)*dim : (r+2)*dim]
			r2 := m[(r+2)*dim : (r+3)*dim]
			r3 := m[(r+3)*dim : (r+4)*dim]
			var a0, a1, a2, a3 complex128
			for x, v := range vec {
				a0 += r0[x] * v
				a1 += r1[x] * v
				a2 += r2[x] * v
				a3 += r3[x] * v
			}
			amp[base|offs[r+0]] = a0
			amp[base|offs[r+1]] = a1
			amp[base|offs[r+2]] = a2
			amp[base|offs[r+3]] = a3
		}
		base = lay.nextGroup(base)
	}
}
