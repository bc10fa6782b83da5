// Package fft implements the classical fast Fourier transform the emulator
// substitutes for the quantum Fourier transform circuit (paper Section 3.2,
// Eq. 5): a recognised QFT costs one bandwidth-bound transform instead of
// O(n²) gate sweeps.
//
// # Network
//
// The transform is an iterative, in-place butterfly network on complex128
// slices, tiled into the fewest passes over the vector: a radix-2 or
// radix-4 head that absorbs log2(size) mod 3, then radix-8 groups (three
// fused radix-2 stages, every element read and written once per group).
// The decimation-in-time network consumes bit-reversed input and produces
// natural order; the decimation-in-frequency network is its transpose and
// runs the groups backwards. Groups whose span fits a cache-resident block
// are run block by block (blockLog), so the small-span half of the network
// costs one trip through memory instead of one per group.
//
// # Twiddles
//
// Each radix-8 group owns one table laid out in the order its butterflies
// read it (twiddle.go): for each pair of adjacent offsets j, j+1 the four
// factors a butterfly cannot derive — w1, w2a, w3a, w3b — lie in one
// 128-byte run, and consecutive butterflies read consecutive runs. The
// other three factors of a radix-8 butterfly are exact quarter-turn
// rotations of those and are applied as a swap and a sign; the inverse
// direction conjugates in the butterfly instead of keeping a second
// table. A plan's tables total 4/7·size entries (9.1 MiB at size 2^20,
// against 16 MiB for a forward/inverse pair of half-length strided
// tables), built with math.Sincos, one exact evaluation per entry.
//
// # Reversal
//
// The natural-order entry points put one reordering pass in front of the
// DIT network: bitReverse (bitrev.go), which exchanges 2^q x 2^q tiles
// through two stack buffers so that memory is only ever touched in
// contiguous runs, in parallel over tiles. The *BitReversed entry points
// skip it — they are the operators of the QFT circuit without its final
// swaps.
//
// # Sharing
//
// NewPlan hands out one shared, immutable plan per size up to
// maxEagerSize, from a mutex-guarded table that lives as long as the
// process: the first request for a size builds its tables, every later one
// is a map lookup, so compiling a circuit with a Fourier region builds
// nothing after the first. The table retains at most one plan per size, in
// total under 2·4/7·maxEagerSize entries (18.3 MiB if every size up to
// 2^20 has been asked for). Larger plans are private to their caller and
// build their tables on the first transform, so a compile pass that only
// wants a plan's shape stays O(log size) and nothing above 16 MiB is
// retained.
//
// # Bodies
//
// The radix-8 butterflies at spans of two or more have two bodies. On
// amd64 hosts whose CPU reports AVX2 and FMA3 and whose OS saves the YMM
// state (internal/cpufeat, asked once at package init) they run the
// assembly in butterfly_amd64.s, vectorised over adjacent offsets: two
// complexes per YMM register, a complex multiply as one VMULPD and one
// VFMADDSUB. Everywhere else, and as the oracle in tests, they run the
// pure-Go butterflies of butterfly.go. The span-one head group is pure Go
// on every host: its two lanes would come from different butterflies,
// which is a different body. Nothing else selects a body: no option,
// environment variable or build tag beyond the GOARCH constraint.
//
// # Workers
//
// Every entry point that takes a worker count runs on exactly that many
// goroutines, the caller's included; one worker starts none. Forward uses
// GOMAXPROCS, ForwardSerial and InverseSerial one.
//
// Sign convention: Forward uses exp(+2*pi*i*k*l/N), matching the QFT
// definition in the paper's Eq. 4; Unitary additionally scales by
// 1/sqrt(N) so that Forward(Unitary) is exactly the QFT matrix.
package fft

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitops"
)

// Plan holds the stage tiling and twiddle tables of transforms of one
// length. It is immutable once built and safe for concurrent use; plans
// up to maxEagerSize are shared process-wide (see NewPlan).
type Plan struct {
	n      uint // log2(size)
	size   uint64
	once   sync.Once
	groups []stageGroup // stage tiling with its tables, fixed by n
}

// maxEagerSize is the largest transform whose plan NewPlan shares and
// whose twiddle tables it builds up front (9.1 MiB at this size, 10-20 ms
// on one core, once per process). Larger plans defer the build to the first transform
// so that compile-only passes — profiling a width-30 Fourier field prices
// the transform without ever running it — stay O(log size).
const maxEagerSize = 1 << 20

// shared is the process-wide plan table, one entry per size up to
// maxEagerSize.
var shared struct {
	sync.Mutex
	plans [21]*Plan // indexed by log2(size); 21 = log2(maxEagerSize)+1
}

// NewPlan returns a plan for transforms of the given power-of-two size.
// Up to maxEagerSize every caller gets the same plan, with its twiddle
// tables built; beyond that the plan is the caller's own, its tables are
// deferred to the first transform and NewPlan is O(log size).
func NewPlan(size uint64) (*Plan, error) {
	if !bitops.IsPowerOfTwo(size) {
		return nil, fmt.Errorf("fft: size %d is not a power of two", size)
	}
	n := bitops.Log2(size)
	if size > maxEagerSize {
		return newPlan(n), nil
	}
	shared.Lock()
	p := shared.plans[n]
	if p == nil {
		p = newPlan(n)
		shared.plans[n] = p
	}
	shared.Unlock()
	// Outside the lock: a first request for 2^20 does not hold up a
	// request for 2^4, and concurrent first requests for one size wait on
	// the plan's own once.
	p.build(1)
	return p, nil
}

func newPlan(n uint) *Plan {
	return &Plan{n: n, size: 1 << n, groups: stageGroups(n)}
}

// Forward computes the unnormalised transform with the +i sign convention,
// in place, on GOMAXPROCS workers. len(data) must equal the plan size.
func (p *Plan) Forward(data []complex128) {
	p.transform(data, false, 1, runtime.GOMAXPROCS(0))
}

// ForwardSerial is Forward restricted to the calling goroutine. The
// cluster back-end uses it so each emulated node stays single-threaded.
func (p *Plan) ForwardSerial(data []complex128) { p.transform(data, false, 1, 1) }

// InverseSerial computes the unnormalised transform with the -i sign
// convention, in place, on the calling goroutine: InverseSerial(Forward(x))
// == N*x.
func (p *Plan) InverseSerial(data []complex128) { p.transform(data, true, 1, 1) }

// unitaryScale is the 1/sqrt(N) of the unitary transforms. It is folded
// into the head group's butterflies, not a separate pass over the data.
func (p *Plan) unitaryScale() float64 { return 1 / math.Sqrt(float64(p.size)) }

// Unitary computes the unitary (QFT) transform on the given number of
// workers: Forward scaled by 1/sqrt(N). Applying it to a state vector
// performs the paper's Eq. 4.
func (p *Plan) Unitary(data []complex128, workers int) {
	p.transform(data, false, p.unitaryScale(), workers)
}

// UnitaryBitReversed computes the unitary transform composed with the
// bit-reversal permutation S: data <- S·F·data, with no reordering pass
// at all — it is the decimation-in-frequency network, whose naturally
// bit-reversed output is exactly what the composition asks for. This is
// the operator of the QFT circuit without its final reversal swaps
// (qft.CircuitNoSwap), which is why the emulation dispatcher wants it as
// a primitive.
func (p *Plan) UnitaryBitReversed(data []complex128, workers int) {
	p.check(data)
	p.network(data, true, false, p.unitaryScale(), workers)
}

// UnitaryInverseFromBitReversed computes F⁻¹·S: the inverse unitary
// transform consuming bit-reversed input — the decimation-in-time stages
// with the reordering pass elided. It is the exact inverse of
// UnitaryBitReversed and the operator of qft.CircuitNoSwap.Dagger().
func (p *Plan) UnitaryInverseFromBitReversed(data []complex128, workers int) {
	p.check(data)
	p.network(data, false, true, p.unitaryScale(), workers)
}

func (p *Plan) check(data []complex128) {
	if uint64(len(data)) != p.size {
		panic(fmt.Sprintf("fft: data length %d does not match plan size %d", len(data), p.size))
	}
}

// transform is the natural-order transform: the reordering pass, then the
// decimation-in-time network.
func (p *Plan) transform(data []complex128, inverse bool, scale float64, workers int) {
	p.check(data)
	bitReverse(data, p.n, p.effective(workers))
	p.network(data, false, inverse, scale, workers)
}

// minParallel is the smallest transform that benefits from goroutines.
const minParallel = 1 << 14

// effective clamps a requested worker count to what this plan's passes
// can use: one below minParallel.
func (p *Plan) effective(workers int) int {
	if workers < 1 || p.size < minParallel {
		return 1
	}
	return workers
}

// blockLog is log2 of the block the small-span groups run in: 2^11
// amplitudes are 32 KiB, an L1-resident working set, so a group whose
// span fits re-reads what the previous group left in cache.
const blockLog = 11

// blocked returns how many of the plan's groups, from the head, have
// spans that fit a 2^blockLog block.
func (p *Plan) blocked() int {
	k := 0
	for k < len(p.groups) && p.groups[k].s+p.groups[k].stages() <= blockLog {
		k++
	}
	return k
}

// network runs the butterfly network over data: decimation in time
// (bit-reversed input, natural output, groups in order) or, with dif, its
// transpose, decimation in frequency (natural input, bit-reversed output,
// groups backwards). The groups whose span fits a 2^blockLog block run
// block by block in one pass — first in DIT, last in DIF — and the rest
// one full pass each.
func (p *Plan) network(data []complex128, dif, inverse bool, scale float64, workers int) {
	if p.size == 1 {
		data[0] *= complex(scale, 0)
		return
	}
	workers = p.effective(workers)
	p.build(workers)
	k := p.blocked()
	inner, outer := p.groups[:k], p.groups[k:]
	ps := pass{data: data, dif: dif, inverse: inverse, scale: scale}
	if dif {
		for i := len(outer) - 1; i >= 0; i-- {
			ps.gs = outer[i : i+1]
			ps.run(workers)
		}
	}
	if len(inner) > 0 {
		ps.gs = inner
		ps.run(workers)
	}
	if !dif {
		for i := range outer {
			ps.gs = outer[i : i+1]
			ps.run(workers)
		}
	}
}

// pass is one trip over the vector: the groups gs of one network
// direction. More than one group go block by block, each block through
// all of them (their spans all fit 2^blockLog).
type pass struct {
	data         []complex128
	gs           []stageGroup
	dif, inverse bool
	scale        float64
}

// run executes the pass on the given workers, sharing the vector out in
// blocks. More than one worker needs a vector of at least one block each,
// which minParallel guarantees.
//
//qemu:hotpath
func (ps *pass) run(workers int) {
	size := uint64(len(ps.data))
	if workers <= 1 {
		ps.chunk(0, size)
		return
	}
	c := *ps
	parallelFor(workers, size>>blockLog, func(lo, hi uint64) {
		c.chunk(lo<<blockLog, hi<<blockLog)
	})
}

// chunk runs the pass over amplitudes [from, to), whole blocks of a vector
// of at least one block or else all of it. A group of radix 2^k numbers
// its butterflies so that those of one span-aligned amplitude range
// [from, to) are exactly [from>>k, to>>k) — which also makes any
// block-aligned split of a wider-span group's pass a split of its
// butterflies, though not into ranges of amplitudes.
func (ps *pass) chunk(from, to uint64) {
	if len(ps.gs) == 1 {
		g := &ps.gs[0]
		g.run(ps.data, from>>g.stages(), to>>g.stages(), ps.dif, ps.inverse, ps.scale)
		return
	}
	for b := from; b < to; b += 1 << blockLog {
		e := min(b+1<<blockLog, to)
		for i := range ps.gs {
			g := &ps.gs[i]
			if ps.dif {
				g = &ps.gs[len(ps.gs)-1-i]
			}
			g.run(ps.data, b>>g.stages(), e>>g.stages(), ps.dif, ps.inverse, ps.scale)
		}
	}
}

// spawned counts the goroutines parallelFor has started. Tests read it to
// pin that one worker means the calling goroutine and no other.
var spawned atomic.Int64

// parallelFor invokes fn over disjoint contiguous chunks of [0, count) on
// workers goroutines, the caller's included, and waits for them.
func parallelFor(workers int, count uint64, fn func(lo, hi uint64)) {
	w := uint64(workers)
	if w > count {
		w = count
	}
	if w <= 1 {
		fn(0, count)
		return
	}
	var wg sync.WaitGroup
	wg.Add(int(w) - 1)
	spawned.Add(int64(w) - 1)
	for k := uint64(1); k < w; k++ {
		go func(lo, hi uint64) {
			defer wg.Done()
			fn(lo, hi)
		}(k*count/w, (k+1)*count/w)
	}
	fn(0, count/w)
	wg.Wait()
}
