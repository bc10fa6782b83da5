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
// read it (twiddle.go): for each four adjacent offsets j..j+3 the four
// factors a butterfly cannot derive — w1, w2a, w3a, w3b — lie in one
// 256-byte run, each factor a 64-byte quadruple (one ZMM load, or one YMM
// load per pair of offsets), and consecutive butterflies read consecutive
// runs. The
// other three factors of a radix-8 butterfly are exact quarter-turn
// rotations of those and are applied as a swap and a sign; the inverse
// direction conjugates in the butterfly instead of keeping a second
// table. A plan's tables total 4/7·size entries (9.1 MiB at size 2^20,
// against 16 MiB for a forward/inverse pair of half-length strided
// tables), built with math.Sincos, one exact evaluation per entry.
//
// # Reversal
//
// Each network works in one pair of orders: decimation in time reads
// bit-reversed input and writes natural order, decimation in frequency
// reads natural order and writes bit-reversed output. Transform exposes
// all three orders a caller can want (Order): Natural puts one reordering
// pass, bitReverse (bitrev.go), in front of the DIT network; ReversedOut is
// the DIF network alone (S·F, S the bit reversal); ReversedIn is the DIT
// network alone (F·S). Each runs forward or inverse, over the whole vector
// or over its contiguous fibres (each pass once across all of them, see
// Transform), and a ReversedOut transform is undone by
// a ReversedIn one, so a caller that can keep track of the order — the
// cluster records it in its qubit placement — pays two networks and no
// reordering pass for a transform and its inverse. bitReverse exchanges
// 2^q x 2^q tiles through two stack buffers so that memory is only ever
// touched in contiguous runs, in parallel over tiles; Reverse is that pass
// on its own, for a caller that must restore natural order.
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
// The butterflies have three bodies, and cpufeat.Active, set once at
// package init from CPUID/XGETBV and shared with statevec's block sweeps,
// picks the highest the host supports. On amd64 hosts whose CPU reports AVX2 and FMA3 and whose
// OS saves the YMM state they run assembly: the radix-8 groups at spans of
// two or more in butterfly_amd64.s, vectorised over adjacent offsets — two
// complexes per YMM register, a complex multiply as one VMULPD and one
// VFMADDSUB — and the radix-8 and radix-4 heads in head_amd64.s, where
// one register holds the same leg of two adjacent butterflies. Where the
// CPU also reports AVX-512F and the OS saves the ZMM state, the radix-8
// groups at spans of four or more run butterfly512_amd64.s instead over
// the part of each range aligned to 4: the same instruction sequence on
// four offsets per ZMM register, one 64-byte twiddle load each, so it
// agrees with the AVX2 body bit for bit; the span-two group, a range's
// unaligned ends and the heads stay on the AVX2 body. Everywhere else,
// and as the oracle in tests, they run the pure-Go butterflies of
// butterfly.go. A head is the span-one group, whose twiddles are powers
// of i and, at radix 8, W_8: every body folds them in (head2, head4,
// head8) instead of reading a table, so the head costs what the other
// groups cost. The radix-2 head is Go on every host. Nothing else selects
// a body: no option, environment variable or build tag beyond the GOARCH
// constraint. The assembly fuses the multiply by W_8, so the assembly
// bodies agree with pure Go to the last bits, not bit for bit.
//
// # Workers
//
// Every entry point that takes a worker count splits each pass into that
// many chunks of one par.For, the caller's included; one worker stays on
// the calling goroutine; a vector below minParallel amplitudes, counting
// every fibre of a Transform, runs on one. Forward uses GOMAXPROCS.
//
// Sign convention: Forward uses exp(+2*pi*i*k*l/N), matching the QFT
// definition in the paper's Eq. 4; Transform additionally scales by
// 1/sqrt(N), so in Natural order it is exactly the QFT matrix.
package fft

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/bitops"
	"repro/internal/par"
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

// Order selects which side of a transform is in bit-reversed index order.
type Order uint8

const (
	// Natural reads and writes natural order: the reordering pass, then
	// the DIT network.
	Natural Order = iota
	// ReversedOut reads natural order and writes the result bit-reversed,
	// S·F: the DIF network alone. It is the operator of the QFT circuit
	// without its final reversal swaps (qft.CircuitNoSwap).
	ReversedOut
	// ReversedIn reads bit-reversed input and writes natural order, F·S:
	// the DIT network alone. It undoes ReversedOut of the opposite
	// direction, and is the operator of qft.CircuitNoSwap(n).Dagger() when
	// inverse.
	ReversedIn
)

// Forward computes the unnormalised transform with the +i sign convention,
// in place, on GOMAXPROCS workers. len(data) must equal the plan size.
func (p *Plan) Forward(data []complex128) {
	p.check(data)
	p.apply(data, false, Natural, 1, runtime.GOMAXPROCS(0))
}

// unitaryScale is the 1/sqrt(N) of the unitary transforms. It is folded
// into the head group's butterflies, not a separate pass over the data.
func (p *Plan) unitaryScale() float64 { return 1 / math.Sqrt(float64(p.size)) }

// Transform applies the unitary transform (inverse: its adjoint) in the
// given order to every contiguous fibre of the plan's size in amps — the
// whole vector when len(amps) is the plan size, else len(amps)/size
// fibres. A group of the network only ever pairs amplitudes inside one
// span of its radix times its stride, so each pass runs once over all the
// fibres together, on as many workers as their total length can use; a
// Natural transform reverses each fibre first. It is TransformField at pos
// 0 with a choice of order.
func (p *Plan) Transform(amps []complex128, inverse bool, order Order, workers int) {
	total := uint64(len(amps))
	if total < p.size || total%p.size != 0 {
		panic(fmt.Sprintf("fft: field transform of size %d does not tile %d amplitudes", p.size, total))
	}
	p.apply(amps, inverse, order, p.unitaryScale(), workers)
}

func (p *Plan) check(data []complex128) {
	if uint64(len(data)) != p.size {
		panic(fmt.Sprintf("fft: data length %d does not match plan size %d", len(data), p.size))
	}
}

// apply transforms the contiguous fibres of the plan's size in data in
// the given order: the reordering pass and the DIT network for Natural,
// one network otherwise.
func (p *Plan) apply(data []complex128, inverse bool, order Order, scale float64, workers int) {
	if order == Natural {
		Reverse(data, p.n, workers)
	}
	p.network(data, order == ReversedOut, inverse, scale, workers)
}

// minParallel is the smallest vector a pass benefits from fanning out
// over.
const minParallel = 1 << 14

// effective clamps a requested worker count to what a pass over total
// amplitudes can use: one below minParallel.
func effective(total uint64, workers int) int {
	if workers < 1 || total < minParallel {
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

// network runs the butterfly network over every fibre of the plan's size
// in data: decimation in time (bit-reversed input, natural output, groups
// in order) or, with dif, its transpose, decimation in frequency (natural
// input, bit-reversed output, groups backwards). The groups whose span
// fits a 2^blockLog block run block by block in one pass — first in DIT,
// last in DIF — and the rest one full pass each.
func (p *Plan) network(data []complex128, dif, inverse bool, scale float64, workers int) {
	if p.size == 1 {
		for i := range data {
			data[i] *= complex(scale, 0)
		}
		return
	}
	workers = effective(uint64(len(data)), workers)
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
	blocks := size >> blockLog
	w := min(uint64(workers), blocks)
	par.For(int(w), func(k int) { c.chunk(uint64(k)*blocks/w<<blockLog, uint64(k+1)*blocks/w<<blockLog) })
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
