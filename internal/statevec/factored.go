package statevec

import "fmt"

// Factor is one Kronecker factor of a dense 2^w block: a 2^k x 2^k
// row-major unitary on k of the block's w local bit positions. Bit j of
// the factor's local index is block bit Bits[j], and block bit b is the
// qubit the caller lists at position b — the positions are the block's
// own, so one Factored serves every placement of the block.
type Factor struct {
	Bits   []uint
	Matrix []complex128
}

// Factored is a dense block kept as the Kronecker product it is: factors
// on disjoint bit sets that partition the block's w bits, each at least
// two wide. ApplyFactored runs it in one sweep at the sum of the factors'
// 2^k multiplies per amplitude instead of the product's 2^w. It is
// immutable after NewFactored and safe to share between goroutines.
type Factored struct {
	w     uint
	steps []factorStep
}

// tileSlotShift turns a local basis state into its byte offset in the
// AVX-512 body's tile, where a slot is one ZMM register: the state's
// amplitude in four groups. The step tables hold byte offsets, so the
// assembly adds them to the tile's address as they are; the pure-Go body,
// whose tile holds one group, shifts them back down.
const tileSlotShift = 6

// factorStep is one factor with the addressing of its pass over a gathered
// tile: the factor's 2^k inputs for the r-th assignment of the block's
// other bits sit in the slots at rest[r] + in[y], y < 2^k, and its outputs
// go to the same slots. The tables are built by newFactorStep and nowhere
// else — never decoded, never taken from a caller — and with the matrix
// length they are the whole memory-safety argument of the assembly's
// passes: every rest[r] + in[y] is a distinct slot below 2^w.
type factorStep struct {
	bits []uint
	m    []complex128
	in   []uint64
	rest []uint64
	// packed is m in the order the ZMM body's row block reads it: for
	// each block of four rows, column by column, the four rows' entries
	// as [re, im] pairs — one cache line per column, walked front to back.
	packed []float64
}

// newFactorStep validates one factor against the block width and builds
// its tables.
func newFactorStep(w uint, f Factor) factorStep {
	k := uint(len(f.Bits))
	if k < 2 || k > w {
		panic(fmt.Sprintf("statevec: factor of %d bits in a %d-bit block, want 2..%d", k, w, w))
	}
	if len(f.Matrix) != 1<<(2*k) {
		panic(fmt.Sprintf("statevec: factor matrix has %d entries, want %d for %d bits", len(f.Matrix), 1<<(2*k), k))
	}
	var mask uint64
	for _, b := range f.Bits {
		if b >= w {
			panic("statevec: factor bit outside the block")
		}
		if mask&(1<<b) != 0 {
			panic("statevec: duplicate bit in a factor")
		}
		mask |= 1 << b
	}
	tab := make([]uint64, 1<<k+1<<(w-k))
	st := factorStep{bits: f.Bits, m: f.Matrix, in: tab[:1<<k], rest: tab[1<<k:]}
	st.packed = make([]float64, 0, 2<<(2*k))
	for r := 0; r < 1<<k; r += 4 {
		for c := 0; c < 1<<k; c++ {
			for _, v := range [4]complex128{f.Matrix[r<<k|c], f.Matrix[(r+1)<<k|c], f.Matrix[(r+2)<<k|c], f.Matrix[(r+3)<<k|c]} {
				st.packed = append(st.packed, real(v), imag(v))
			}
		}
	}
	for y := range st.in {
		var x uint64
		for j, b := range f.Bits {
			x |= uint64(y) >> j & 1 << b
		}
		st.in[y] = x << tileSlotShift
	}
	// The states with the factor's bits clear, in ascending order.
	r := 0
	for x := uint64(0); x < 1<<w; x++ {
		if x&mask == 0 {
			st.rest[r] = x << tileSlotShift
			r++
		}
	}
	return st
}

// NewFactored builds the factored form of a w-bit dense block. The factors
// must partition the bits 0..w-1 between them, each taking at least two,
// and there must be at least two of them (a single factor is the dense
// block ApplyMatrixN takes). Factors on disjoint bits commute, so their
// order is free; they run in the order given. The Factored keeps the
// slices it is handed: the caller must not write to them afterwards.
func NewFactored(w uint, factors []Factor) *Factored {
	if w > MaxMatrixNQubits {
		panic(fmt.Sprintf("statevec: block width %d exceeds MaxMatrixNQubits=%d", w, MaxMatrixNQubits))
	}
	if len(factors) < 2 {
		panic("statevec: a factored block needs at least two factors")
	}
	fd := &Factored{w: w, steps: make([]factorStep, len(factors))}
	var seen uint64
	covered := uint(0)
	for i, f := range factors {
		fd.steps[i] = newFactorStep(w, f)
		for _, b := range f.Bits {
			if seen&(1<<b) != 0 {
				panic("statevec: factors of a block overlap")
			}
			seen |= 1 << b
		}
		covered += uint(len(f.Bits))
	}
	if covered != w {
		panic(fmt.Sprintf("statevec: factors cover %d of the block's %d bits", covered, w))
	}
	return fd
}

// Width returns the block width w.
func (f *Factored) Width() uint { return f.w }

// Len returns the number of factors.
func (f *Factored) Len() int { return len(f.steps) }

// Factor returns the i-th factor. Its slices are the Factored's own.
func (f *Factored) Factor(i int) Factor {
	return Factor{Bits: f.steps[i].bits, Matrix: f.steps[i].m}
}

// Dense multiplies the factors out into the 2^w x 2^w row-major matrix
// ApplyMatrixN takes for the same block: entry (r, c) is the product of the
// factors' entries at the bits of r and c each factor owns. It is for
// tests and introspection; nothing on an execution path builds it.
func (f *Factored) Dense() []complex128 {
	dim := 1 << f.w
	m := make([]complex128, dim*dim)
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			v := complex128(1)
			for i := range f.steps {
				st := &f.steps[i]
				v *= st.m[localIndex(st.bits, r)<<len(st.bits)|localIndex(st.bits, c)]
			}
			m[r*dim+c] = v
		}
	}
	return m
}

// localIndex reads a factor's local index off block state x: bit j of the
// result is bit bits[j] of x.
func localIndex(bits []uint, x int) (y int) {
	for j, b := range bits {
		y |= x >> b & 1 << j
	}
	return y
}

// checkFactored validates a (factored block, qubits) pair: the list must
// name exactly w distinct in-range qubits.
func (s *State) checkFactored(f *Factored, qubits []uint) {
	if f == nil {
		panic("statevec: ApplyFactored with no block")
	}
	if uint(len(qubits)) != f.w {
		panic(fmt.Sprintf("statevec: factored block of width %d applied to %d qubits", f.w, len(qubits)))
	}
	s.checkBlockQubits(qubits, "ApplyFactored")
}

// ApplyFactored applies a factored dense block to the listed qubits: bit j
// of the block's local index is qubits[j], as in ApplyMatrixN, and the
// result is that of ApplyMatrixN with the factors' Kronecker product. The
// list may be in any order — internal/cluster passes remapped physical
// positions.
//
// On the AVX-512 body this is one sweep: every factor is applied, in L1,
// to a tile holding four groups of 2^w amplitudes, so the state is read
// and written once whatever the number of factors (see "Kernel bodies" in
// the package comment). On the other bodies each factor is its own
// narrower dense sweep through the body the host has, which is already
// cheaper than the one wide sweep (BenchmarkDenseBlock, n=20, two w=2
// sweeps against one w=4: 1.4 against 1.8 sweep units on AVX2, 3.7 against
// 9.4 in pure Go).
//
//qemu:hotpath
func (s *State) ApplyFactored(f *Factored, qubits []uint) {
	s.checkFactored(f, qubits)
	if denseBody != bodyAVX512 {
		var sub [MaxMatrixNQubits]uint
		for i := range f.steps {
			st := &f.steps[i]
			for j, b := range st.bits {
				sub[j] = qubits[b]
			}
			if len(st.bits) == 2 {
				s.matrix4((*[16]complex128)(st.m), sub[0], sub[1])
			} else {
				s.denseSweep(st.m, sub[:len(st.bits)])
			}
		}
		return
	}
	lay := s.layoutFor(qubits)
	sc := s.factorPasses(f, lay)
	groups := s.Dim() >> lay.w
	if s.parallelism(groups) <= 1 {
		factorChunk(s.amp, f.steps, sc, lay, 0, groups)
		return
	}
	s.parallelRange(groups, func(start, end uint64) {
		factorChunk(s.amp, f.steps, sc, lay, start, end)
	})
}

// factorPass is one factor's pass as the ZMM body runs it: the matrix in
// the body's order, where the pass reads and where it writes. A source or
// destination is a base — one of the frame's two tiles, or the address of
// the pass's first group in the amplitude array — a table of byte offsets
// for the assignments of the block's other bits and one for the factor's
// own states, walked in step with each other. The assembly reads the
// fields by offset (go_asm.h).
type factorPass struct {
	m                  *float64
	srcRest, srcIn     *uint64
	dstRest, dstIn     *uint64
	restBytes, inBytes uint64 // table lengths in bytes
	src, dst           uint64 // passTileA, passTileB or passAmp
}

const (
	passTileA = iota
	passTileB
	passAmp
)

// factorScratch is what one ApplyFactored call lays out for the ZMM body,
// State-owned like blockLayout. A quad of groups that is one 64-byte run
// of the vector per local state (neither qubit 0 nor qubit 1 in the block,
// a group index that is a multiple of 4: the dense sweep's one-move
// gather) needs no gather and no scatter at all: the first pass reads the
// amplitudes where they are and the last writes them back, through the
// step's tables translated to amplitude offsets — ampIn and ampRest, [0]
// for the first step and [1] for the last (a factor and the rest of its
// block are at most MaxMatrixNQubits-2 bits each, since another factor
// takes two). Any other quad is gathered lane by lane into a tile, and
// every pass goes from tile to tile.
type factorScratch struct {
	runs, lanes    [MaxMatrixNQubits / 2]factorPass
	ampIn, ampRest [2][1 << (MaxMatrixNQubits - 2)]uint64
}

// factorPasses fills the State's pass scratch for f over a validated
// layout. Offsets are or-linear in the local state (offs[a|b] = offs[a] |
// offs[b] for disjoint a and b), so a slot's amplitude offset is the sum of
// its rest and in parts exactly as its tile offset is.
func (s *State) factorPasses(f *Factored, lay *blockLayout) *factorScratch {
	if s.factor == nil {
		s.factor = new(factorScratch)
	}
	sc := s.factor
	last := len(f.steps) - 1
	for i := range f.steps {
		st := &f.steps[i]
		p := factorPass{
			m:       &st.packed[0],
			srcRest: &st.rest[0], srcIn: &st.in[0],
			dstRest: &st.rest[0], dstIn: &st.in[0],
			restBytes: 8 * uint64(len(st.rest)), inBytes: 8 * uint64(len(st.in)),
		}
		// The tiles alternate. A lane gather fills A, so the lane passes
		// go A to B, B to A, ...; on the run path the first pass fills A
		// from the amplitudes, so its passes run one tile behind: (the
		// amplitudes) to A, A to B, ...
		p.src, p.dst = uint64(i&1), uint64(i&1^1)
		sc.lanes[i] = p
		p.src, p.dst = p.dst, p.src
		sc.runs[i] = p
	}
	for end, i := range [2]int{0, last} {
		st := &f.steps[i]
		for y, o := range st.in {
			sc.ampIn[end][y] = lay.offs[o>>tileSlotShift] << 4
		}
		for r, o := range st.rest {
			sc.ampRest[end][r] = lay.offs[o>>tileSlotShift] << 4
		}
	}
	first, final := &sc.runs[0], &sc.runs[last]
	first.src, first.srcRest, first.srcIn = passAmp, &sc.ampRest[0][0], &sc.ampIn[0][0]
	final.dst, final.dstRest, final.dstIn = passAmp, &sc.ampRest[1][0], &sc.ampIn[1][0]
	return sc
}

// factorChunk runs the factor steps over groups [start, end) of lay: whole
// quads of groups through the ZMM body, which has no tail code, and the
// 0-3 groups left at the end of the chunk through the pure-Go in-tile
// body. The range check is the last guard in front of the unchecked
// assembly, as in denseChunk.
func factorChunk(amp []complex128, steps []factorStep, sc *factorScratch, lay *blockLayout, start, end uint64) {
	if start > end || end > uint64(len(amp))>>lay.w {
		panic("statevec: factored block chunk out of range")
	}
	quads := start + (end-start)&^3
	factorChunkAsm(amp, len(steps), sc, lay, start, quads)
	factorChunkGo(amp, steps, lay, quads, end)
}

// factorChunkGo is the pure-Go in-tile body: the oracle of the assembly
// one, and what runs a chunk's last 0-3 groups. Gather the group, apply
// each factor to the tile in place — its inputs are copied out first, four
// rows at a time as in denseChunkGo — and scatter.
func factorChunkGo(amp []complex128, steps []factorStep, lay *blockLayout, start, end uint64) {
	offs := lay.offs[:1<<lay.w]
	var tile [1 << MaxMatrixNQubits]complex128
	var inputs [1 << MaxMatrixNQubits]complex128
	base := lay.groupBase(start)
	for c := start; c < end; c++ {
		for x, o := range offs {
			tile[x] = amp[base|o]
		}
		for i := range steps {
			st := &steps[i]
			dim := len(st.in)
			vec := inputs[:dim]
			for _, rest := range st.rest {
				for y, o := range st.in {
					vec[y] = tile[(rest+o)>>tileSlotShift]
				}
				for r := 0; r < dim; r += 4 {
					r0 := st.m[(r+0)*dim : (r+1)*dim]
					r1 := st.m[(r+1)*dim : (r+2)*dim]
					r2 := st.m[(r+2)*dim : (r+3)*dim]
					r3 := st.m[(r+3)*dim : (r+4)*dim]
					var a0, a1, a2, a3 complex128
					for y, v := range vec {
						a0 += r0[y] * v
						a1 += r1[y] * v
						a2 += r2[y] * v
						a3 += r3[y] * v
					}
					tile[(rest+st.in[r+0])>>tileSlotShift] = a0
					tile[(rest+st.in[r+1])>>tileSlotShift] = a1
					tile[(rest+st.in[r+2])>>tileSlotShift] = a2
					tile[(rest+st.in[r+3])>>tileSlotShift] = a3
				}
			}
		}
		for x, o := range offs {
			amp[base|o] = tile[x]
		}
		base = lay.nextGroup(base)
	}
}
