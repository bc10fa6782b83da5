// Package statevec implements the dense state-vector representation of an
// n-qubit register: 2^n complex128 amplitudes, with shared-memory parallel
// kernels for gate application, basis-state permutations (the emulator's
// classical-function shortcut), diagonal phase functions, and measurement.
//
// The layout convention matches the paper: amplitude index i, read as an
// n-bit integer, assigns bit k of i to qubit k, with qubit 0 the least
// significant bit.
//
// # Execution engine
//
// Every kernel and reduction runs through one engine (parallel.go): a
// persistent worker pool created lazily per State and sized from
// GOMAXPROCS, fed cache-line-aligned chunks of the amplitude vector.
// Gate kernels use parallelRange; Norm, Inner, MaxDiff, Probability,
// ExpectationDiagonal, ExpectationPauli and the sampling prefix sums use
// parallelReduce with per-worker partial accumulators folded in chunk
// order (deterministic for a fixed parallelism setting). Collapse fuses
// its zero + norm + rescale passes into a single sweep. SetParallelism(1)
// forces the single-threaded variants; callers that shard work themselves
// (one State per node, as internal/cluster does per shard) should use it.
//
// A State also carries a reusable scratch vector: ApplyPermutation and
// ApplyFieldAdd write into it and swap it with the live amplitude slice
// instead of allocating 16*2^n bytes per call. The scratch buffer is owned
// by the State; slices previously obtained from Amplitudes may therefore
// be recycled as scratch storage after a permutation.
//
// # Kernel bodies
//
// The dense 2^w block sweep — ApplyMatrixN at w >= 2, ApplyMatrix4 and
// ApplyFactored — has three bodies, and one value, denseBody, decided once at package init
// from CPUID and XGETBV alone (internal/cpufeat), says which one runs:
// denseSweepAVX512 (dense512_amd64.s) on amd64 hosts whose CPU reports
// AVX512F and whose OS saves the opmask and ZMM state; denseSweepAVX2
// (dense_amd64.s) on amd64 hosts with AVX2 and FMA3 and the YMM state
// saved — CI runners, most desktops; the pure-Go chunk functions
// (denseChunkGo, and the tuned matrix4Chunk at w=2) everywhere else, and
// as the oracle in tests. Nothing else selects a body: no option,
// environment variable or build tag beyond the GOARCH constraint.
//
// Both assembly bodies keep the interleaved [re, im] layout and put one
// group in each 128-bit lane of a vector register — two per YMM, four per
// ZMM — gathered with 128-bit loads, so qubit 0 inside the block is no
// special case. A complex multiply-add is two FMAs, the broadcast real
// part and the broadcast imaginary part of the matrix entry each times the
// gathered pair, in separate accumulators that are folded once per row
// (re = A.re - B.im, im = A.im + B.re); four rows at a time give eight
// independent chains. The gathered tile is copied to the frame, so the
// in-place scatter cannot clobber inputs; the matrix is read as the caller
// passed it. The group loop is inside the assembly and steps the group
// base with ((base | qmask) + 1) &^ qmask — the same blockLayout
// arithmetic the pure-Go bodies and ApplyDiagN use — and every width from
// 2 to MaxMatrixNQubits goes through the one body, its bounds being data.
//
// The two differ where the instruction sets do. The YMM body swaps the
// gathered pair at every column and folds with VADDSUBPD; EVEX has no
// VADDSUBPD, so the ZMM body takes the matrix entries as embedded
// broadcasts, swaps the imaginary accumulator once per row, and folds with
// VFMADDSUB231PD against a register of ones: an exact product and one
// rounding, the same sums of the same products, so the two bodies agree
// bit for bit (the tests hold them to that; pure Go rounds each product
// and agrees to 1e-12). When qubits 0 and 1 are both outside the block,
// the four groups of a ZMM pass are one 64-byte run of the vector, and
// gather and scatter are single moves. The ZMM body has no tail code:
// denseChunkAsm hands it the multiple of 4 in a chunk and leaves the last
// 0-3 groups to the YMM body, whose own odd group runs with both lanes on
// it.
//
// A dense block whose gates fall into groups on disjoint qubits is a
// Kronecker product, and ApplyFactored runs it as one: a Factored holds
// the factors — each a 2^k x 2^k unitary on k >= 2 of the block's local
// bit positions — and the sweep costs the sum of the factors' 2^k
// multiplies per amplitude where the multiplied-out block costs 2^w. On
// the ZMM body (factorSweepAVX512, factor512_amd64.s) it is still one pass
// over the state: a quad of groups becomes a tile of 2^w ZMM slots, and
// each factor makes one pass over the tile in L1 — for every assignment of
// the block's other bits, the factor's 2^k slots in, the dense body's row
// block on them, 2^k slots out into a second tile, so no row block
// clobbers the inputs of the next. The slots a pass touches come from two
// small byte-offset tables per factor (rest and in), built by
// newFactorStep when the Factored is made and by nothing else. Because a
// factor's row block is only 2^k columns long, the instructions around
// its multiply-adds are cut to fit: the factor's matrix is packed in the
// order the chains consume it, columns go four at a time off one table
// load and the factor's two lowest strides, and a row block's first
// column is a multiply. When a quad is one 64-byte run per local state —
// the case the dense body gathers with single moves — there is no gather
// and no scatter at all: the first factor reads the amplitude array in
// place and the last writes it back, through the same tables translated
// to amplitude offsets once per call (factorPasses). Otherwise the quad is
// gathered lane by lane as in the dense body. The ZMM body has no tail
// here either: a chunk's last 0-3 groups go to factorChunkGo, the pure-Go
// in-tile body that is also its oracle. On the AVX2 and pure-Go bodies
// ApplyFactored runs each factor as its own narrower dense sweep through
// the body the host has — no new assembly there, and already cheaper than
// the one wide sweep (n=20, two w=2 sweeps against one w=4: 1.4 sweep
// units against 1.8 on AVX2, 3.7 against 9.4 in pure Go).
//
// The assembly checks no bounds. Its memory safety is exactly: the
// checkMatrixN / checkQubitPair / checkFactored validation every exported
// entry runs before the first amplitude access (distinct in-range qubits,
// a matrix of 4^w entries, or a Factored, whose constructor has checked
// that the factors partition the block's bits and sized every table), plus
// chunk ranges inside [0, 2^(n-w)) — parallelRange's partition,
// re-checked by denseChunk and factorChunk in front of the call. Goroutine
// preemption cannot interrupt assembly, so one call does at most
// denseAsmWork multiply-adds.
//
// A host runs every body below its own, and the tests use that: they move
// the unexported denseBody (withDenseBody in bench_test.go), the statevec,
// fuse and backend suites run one pass per available body (their
// TestMain), and the comparison tests hold every body against every
// narrower one, so an AVX-512 host still executes the code an AVX2-only or
// a plain host runs.
//
// # Validation contract
//
// Kernels panic on structurally invalid arguments — target or control
// qubit out of range, control equal to target, duplicate block qubits,
// malformed matrix sizes — before touching any amplitude. Numerical
// preconditions (normalisation, unitarity, bijectivity of permutation
// functions) are the caller's responsibility and are not checked.
package statevec

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/rng"
)

// MaxQubits bounds the register size a single address space can hold; at 30
// qubits the vector is already 16 GiB. The bound exists to turn an
// accidental huge allocation into a clear error.
const MaxQubits = 34

// State is the wavefunction of an n-qubit register. The amplitude slice has
// length exactly 2^n. Methods that mutate the state do so in place.
//
// A State is not safe for concurrent use; distinct States are independent
// (each owns its worker pool and scratch buffer) and may be driven from
// different goroutines freely.
type State struct {
	n   uint
	amp []complex128
	// scratch is the out-of-place buffer ApplyPermutation swaps with amp;
	// nil until the first permutation.
	scratch []complex128
	// block is the layout scratch of the 2^w block kernels (ApplyMatrixN,
	// ApplyMatrix4, ApplyDiagN); nil until the first block.
	block *blockLayout
	// factor is the pass scratch of ApplyFactored's AVX-512 body; nil
	// until the first factored block there.
	factor *factorScratch
	// runs is the index scratch of ApplyDiagTable; nil until the first.
	runs *[MaxQubits]diagRun
	// pool is the persistent worker pool; nil until the first kernel large
	// enough to go parallel.
	pool *workerPool
	// maxWorkers caps kernel parallelism; 0 means GOMAXPROCS.
	maxWorkers int
}

// New returns an n-qubit register initialised to the computational basis
// state |0...0>.
func New(n uint) *State {
	s := NewZero(n)
	s.amp[0] = 1
	return s
}

// NewZero returns an n-qubit register with all amplitudes zero. Callers
// must fill it before using it as a quantum state; it exists so kernels can
// allocate scratch output vectors.
func NewZero(n uint) *State {
	if n > MaxQubits {
		panic(fmt.Sprintf("statevec: %d qubits exceeds MaxQubits=%d", n, MaxQubits))
	}
	return &State{n: n, amp: make([]complex128, uint64(1)<<n)}
}

// NewBasis returns an n-qubit register initialised to basis state |i>.
func NewBasis(n uint, i uint64) *State {
	s := NewZero(n)
	if i >= s.Dim() {
		panic(fmt.Sprintf("statevec: basis state %d out of range for %d qubits", i, n))
	}
	s.amp[i] = 1
	return s
}

// FromAmplitudes wraps amps (whose length must be a power of two) as a
// State without copying. The State takes ownership of the slice: after a
// permutation kernel runs, the slice may be retired to scratch storage and
// overwritten by later operations.
func FromAmplitudes(amps []complex128) (*State, error) {
	d := uint64(len(amps))
	if d == 0 || d&(d-1) != 0 {
		return nil, fmt.Errorf("statevec: length %d is not a power of two", d)
	}
	n := uint(0)
	for (uint64(1) << n) < d {
		n++
	}
	return &State{n: n, amp: amps}, nil
}

// NewRandom returns a normalised Haar-like random state drawn from src,
// used as generic test input.
func NewRandom(n uint, src *rng.Source) *State {
	s := NewZero(n)
	for i := range s.amp {
		s.amp[i] = src.Complex()
	}
	s.Normalize()
	return s
}

// NumQubits returns n.
func (s *State) NumQubits() uint { return s.n }

// Dim returns 2^n.
func (s *State) Dim() uint64 { return uint64(len(s.amp)) }

// Amplitudes exposes the backing slice. Mutating it mutates the state. The
// slice header is only valid until the next permutation kernel, which
// swaps the backing array with the State's scratch buffer.
func (s *State) Amplitudes() []complex128 { return s.amp }

// Amplitude returns amplitude i.
func (s *State) Amplitude(i uint64) complex128 { return s.amp[i] }

// SetAmplitude overwrites amplitude i; the caller is responsible for
// keeping the state normalised.
func (s *State) SetAmplitude(i uint64, a complex128) { s.amp[i] = a }

// Clone returns a deep copy of s. The copy starts with its own (lazily
// created) worker pool and scratch buffer but inherits the parallelism
// setting.
func (s *State) Clone() *State {
	c := &State{n: s.n, amp: make([]complex128, len(s.amp)), maxWorkers: s.maxWorkers}
	copy(c.amp, s.amp)
	return c
}

// CopyFrom overwrites s with the contents of other (same qubit count).
func (s *State) CopyFrom(other *State) {
	if s.n != other.n {
		panic("statevec: CopyFrom dimension mismatch")
	}
	copy(s.amp, other.amp)
}

// Norm returns the 2-norm of the amplitude vector (1 for a valid state).
func (s *State) Norm() float64 {
	return math.Sqrt(s.normSquared())
}

// Mass returns the total probability mass sum |amp_i|^2 (the squared
// norm), reduced in parallel. Shard owners holding a slice of a larger
// register use it to combine per-shard masses without the precision loss
// of squaring Norm.
func (s *State) Mass() float64 { return s.normSquared() }

// Scale multiplies every amplitude by v in one parallel sweep. Sharded
// owners use it for node-local rescaling (collapse renormalisation,
// diagonal gates on node-selecting qubits).
func (s *State) Scale(v complex128) {
	if v == 1 {
		return
	}
	if s.parallelism(s.Dim()) <= 1 {
		// No closure on the serial path: the trajectory runner rescales a
		// small state after every damping point.
		for i := range s.amp {
			s.amp[i] *= v
		}
		return
	}
	s.parallelRange(s.Dim(), func(start, end uint64) {
		for i := start; i < end; i++ {
			s.amp[i] *= v
		}
	})
}

// AdoptAmplitudes replaces the backing amplitude slice with amps (which
// must have length Dim) and returns the retired slice. It lets an owner of
// many shard-States (internal/cluster) run collectives that gather into
// recycled buffers and swap them in without copying — the State-level
// analogue of the scratch swap ApplyPermutation does internally.
func (s *State) AdoptAmplitudes(amps []complex128) []complex128 {
	if uint64(len(amps)) != s.Dim() {
		panic(fmt.Sprintf("statevec: AdoptAmplitudes slice has %d entries, want %d", len(amps), s.Dim()))
	}
	old := s.amp
	s.amp = amps
	return old
}

// normSquared returns the total probability mass, reduced in parallel.
func (s *State) normSquared() float64 {
	return parallelReduce(s, s.Dim(), func(start, end uint64) float64 {
		var acc float64
		for _, a := range s.amp[start:end] {
			acc += real(a)*real(a) + imag(a)*imag(a)
		}
		return acc
	}, addFloat)
}

// Normalize rescales the state to unit norm. It panics on the zero vector.
func (s *State) Normalize() {
	nrm := s.Norm()
	if nrm == 0 {
		panic("statevec: cannot normalise the zero vector")
	}
	inv := complex(1/nrm, 0)
	s.parallelRange(s.Dim(), func(start, end uint64) {
		for i := start; i < end; i++ {
			s.amp[i] *= inv
		}
	})
}

// Inner returns <s|other>.
func (s *State) Inner(other *State) complex128 {
	if s.n != other.n {
		panic("statevec: Inner dimension mismatch")
	}
	amps, oamps := s.amp, other.amp
	return parallelReduce(s, s.Dim(), func(start, end uint64) complex128 {
		var acc complex128
		o := oamps[start:end]
		for i, a := range amps[start:end] {
			acc += cmplx.Conj(a) * o[i]
		}
		return acc
	}, addComplex)
}

// Fidelity returns |<s|other>|^2.
func (s *State) Fidelity(other *State) float64 {
	ip := s.Inner(other)
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// MaxDiff returns the largest absolute amplitude difference between s and
// other, the metric the cross-validation tests use.
func (s *State) MaxDiff(other *State) float64 {
	if s.n != other.n {
		panic("statevec: MaxDiff dimension mismatch")
	}
	return parallelReduce(s, s.Dim(), func(start, end uint64) float64 {
		var m float64
		o := other.amp[start:end]
		for i, a := range s.amp[start:end] {
			if d := cmplx.Abs(a - o[i]); d > m {
				m = d
			}
		}
		return m
	}, maxFloat)
}

// ApproxEqual reports whether every amplitude of s is within eps of other,
// ignoring any global phase difference is NOT done here: states must match
// exactly up to eps. Use FidelityClose for phase-insensitive comparison.
func (s *State) ApproxEqual(other *State, eps float64) bool {
	return s.MaxDiff(other) <= eps
}
