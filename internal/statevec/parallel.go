package statevec

import (
	"runtime"

	"repro/internal/par"
)

// parallelThreshold is the vector length below which kernels run serially;
// dispatching to par's workers costs more than it saves on tiny registers.
const parallelThreshold = 1 << 12

// chunkAlign is the granularity of chunk boundaries in loop indices. Eight
// complex128 amplitudes are 128 bytes (two cache lines), so two workers
// never write the same cache line even when a kernel maps loop index i
// straight to amplitude i.
const chunkAlign = 8

// SetParallelism bounds the worker count the State's kernels use: 1 forces
// single-threaded execution (the variant the per-node paths of
// internal/cluster and deterministic tests want), 0 restores the
// GOMAXPROCS default. It must not be called concurrently with kernels on
// the same State.
func (s *State) SetParallelism(w int) {
	if w < 0 {
		w = 0
	}
	s.maxWorkers = w
}

// Workers returns the most goroutines a kernel on this State runs on: the
// SetParallelism cap, or GOMAXPROCS without one. Code that works on the
// amplitude slice outside the kernels (the emulated Fourier transform)
// takes its worker count from here, so one setting governs both.
func (s *State) Workers() int {
	if s.maxWorkers > 0 {
		return s.maxWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelism returns the number of chunks a loop over size items should
// split into.
func (s *State) parallelism(size uint64) int {
	w := s.Workers()
	if w <= 1 || size < parallelThreshold {
		return 1
	}
	// Keep at least 1024 items per worker so chunk dispatch stays cheap
	// relative to the work.
	return min(w, int(size/1024))
}

// chunks describes an aligned partition of [0, size) into n chunks.
type chunks struct {
	size  uint64
	chunk uint64
	n     int
}

// makeChunks splits size items into at most w cache-line-aligned chunks.
func makeChunks(size uint64, w int) chunks {
	c := (size + uint64(w) - 1) / uint64(w)
	c = (c + chunkAlign - 1) &^ uint64(chunkAlign-1)
	if c == 0 {
		c = chunkAlign
	}
	return chunks{size: size, chunk: c, n: int((size + c - 1) / c)}
}

// bounds returns the half-open index range of chunk i.
func (ck chunks) bounds(i int) (lo, hi uint64) {
	lo = uint64(i) * ck.chunk
	hi = lo + ck.chunk
	if hi > ck.size {
		hi = ck.size
	}
	return lo, hi
}

// chunksFor plans the partition for a loop over size items under the
// State's parallelism policy.
func (s *State) chunksFor(size uint64) chunks {
	return makeChunks(size, s.parallelism(size))
}

// parallelRange invokes fn(start, end) over disjoint aligned chunks of
// [0, size) through par.For and waits for completion; fn may start
// parallel kernels of its own. Small sizes (or parallelism 1) run fn
// inline with no dispatch and no allocation.
func (s *State) parallelRange(size uint64, fn func(start, end uint64)) {
	ck := s.chunksFor(size)
	if ck.n <= 1 {
		fn(0, size)
		return
	}
	par.For(ck.n, func(i int) { fn(ck.bounds(i)) })
}

// parallelReduce evaluates fn over disjoint chunks of [0, size), one
// partial accumulator per worker, and folds the partials left to right
// with combine. The fold order depends only on the chunk plan, so results
// are deterministic for a fixed parallelism setting.
func parallelReduce[A any](s *State, size uint64, fn func(start, end uint64) A, combine func(a, b A) A) A {
	ck := s.chunksFor(size)
	if ck.n <= 1 {
		return fn(0, size)
	}
	parts := make([]A, ck.n)
	par.For(ck.n, func(i int) { parts[i] = fn(ck.bounds(i)) })
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = combine(acc, p)
	}
	return acc
}

func addFloat(a, b float64) float64 { return a + b }
func maxFloat(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}
