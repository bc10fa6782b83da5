package statevec

import (
	"math"
	"math/cmplx"
	"runtime"
	"sync"
	"testing"

	"repro/internal/rng"
)

// engineN is large enough (dim 2^13 > parallelThreshold) that kernels on a
// multi-worker State actually dispatch to the pool.
const engineN = 13

// TestPooledKernelsMatchSerial is the engine's core property test: every
// kernel and reduction must produce the same result (to 1e-12) through the
// worker pool as through the forced single-threaded path.
func TestPooledKernelsMatchSerial(t *testing.T) {
	src := rng.New(202)
	trials := 3
	if testing.Short() {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		init := NewRandom(engineN, src)
		par := init.Clone()
		par.SetParallelism(4)
		ser := init.Clone()
		ser.SetParallelism(1)

		for _, g := range randomGates(src, engineN, 40) {
			par.ApplyGate(g)
			ser.ApplyGate(g)
		}
		// A generic 3-qubit block through the gather/scatter sweep.
		blk := randomUnitary(src, 3)
		qs := []uint{1, 5, 9}
		par.ApplyMatrixN(blk, qs)
		ser.ApplyMatrixN(blk, qs)
		// A permutation through the scratch-swap path.
		mask := par.Dim() - 1
		rot := func(i uint64) uint64 { return (i + 97) & mask }
		par.ApplyPermutation(rot)
		ser.ApplyPermutation(rot)

		if d := par.MaxDiff(ser); d > 1e-12 {
			t.Fatalf("pooled vs serial state diverged: %g", d)
		}
		obs := func(i uint64) float64 { return float64(i % 11) }
		checks := []struct {
			name string
			p, s float64
		}{
			{"Norm", par.Norm(), ser.Norm()},
			{"Probability", par.Probability(3), ser.Probability(3)},
			{"ExpectationDiagonal", par.ExpectationDiagonal(obs), ser.ExpectationDiagonal(obs)},
		}
		for _, c := range checks {
			if math.Abs(c.p-c.s) > 1e-12 {
				t.Errorf("%s: pooled %v vs serial %v", c.name, c.p, c.s)
			}
		}
	}
}

// randomUnitary builds a Haar-ish random 2^w x 2^w unitary by
// orthonormalising random columns (Gram-Schmidt); exact unitarity is not
// required for the parity checks, but keeps the state well-conditioned —
// and out of the denormal range when a benchmark applies it thousands of
// times.
func randomUnitary(src *rng.Source, w uint) []complex128 {
	d := 1 << w
	cols := make([][]complex128, d)
	for c := range cols {
		v := make([]complex128, d)
		for i := range v {
			v[i] = src.Complex()
		}
		for _, prev := range cols[:c] {
			var dot complex128
			for i := range v {
				dot += cmplx.Conj(prev[i]) * v[i]
			}
			for i := range v {
				v[i] -= dot * prev[i]
			}
		}
		var nrm float64
		for _, x := range v {
			nrm += real(x)*real(x) + imag(x)*imag(x)
		}
		inv := complex(1/math.Sqrt(nrm), 0)
		for i := range v {
			v[i] *= inv
		}
		cols[c] = v
	}
	m := make([]complex128, d*d)
	for r := 0; r < d; r++ {
		for c := 0; c < d; c++ {
			m[r*d+c] = cols[c][r]
		}
	}
	return m
}

// TestConcurrentIndependentStates drives several States from separate
// goroutines at once — each with its own worker pool — and verifies every
// one against a serial twin. Run under -race this is the pool's data-race
// coverage.
func TestConcurrentIndependentStates(t *testing.T) {
	goroutines := 4
	if testing.Short() {
		goroutines = 2
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			src := rng.New(seed)
			par := NewRandom(engineN, src)
			par.SetParallelism(3)
			ser := par.Clone()
			ser.SetParallelism(1)
			for _, g := range randomGates(src, engineN, 25) {
				par.ApplyGate(g)
				ser.ApplyGate(g)
			}
			mask := par.Dim() - 1
			par.ApplyPermutation(func(i uint64) uint64 { return (i + 31) & mask })
			ser.ApplyPermutation(func(i uint64) uint64 { return (i + 31) & mask })
			if d := par.MaxDiff(ser); d > 1e-12 {
				t.Errorf("goroutine seed %d: diverged by %g", seed, d)
			}
		}(uint64(400 + g))
	}
	wg.Wait()
}

// TestWorkerPoolIsPersistent verifies the tentpole's point: repeated
// kernels reuse one pool instead of spawning goroutines per call.
func TestWorkerPoolIsPersistent(t *testing.T) {
	s := NewRandom(engineN, rng.New(505))
	s.SetParallelism(4)
	s.ApplyHadamard(0) // force pool creation
	if s.pool == nil {
		t.Fatal("no pool created for a parallel-sized state")
	}
	p := s.pool
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		s.ApplyHadamard(uint(i % engineN))
		_ = s.Norm()
	}
	if s.pool != p {
		t.Error("pool was recreated between kernels")
	}
	after := runtime.NumGoroutine()
	if after > before+8 {
		t.Errorf("goroutine count grew from %d to %d across 400 kernels", before, after)
	}
}

// TestSmallStateStaysSerial verifies the engine never spawns a pool below
// the parallel threshold (DenseUnitary creates thousands of tiny states;
// they must stay pool-free).
func TestSmallStateStaysSerial(t *testing.T) {
	s := NewRandom(8, rng.New(606))
	for _, g := range randomGates(rng.New(607), 8, 20) {
		s.ApplyGate(g)
	}
	_ = s.Norm()
	_ = s.Probability(0)
	if s.pool != nil {
		t.Error("a 256-amplitude state spawned a worker pool")
	}
}

// TestApplyPermutationScratchReuse verifies the swap semantics: repeated
// permutations stay correct while reusing the same two buffers.
func TestApplyPermutationScratchReuse(t *testing.T) {
	src := rng.New(707)
	s := NewRandom(engineN, src)
	s.SetParallelism(4)
	orig := s.Clone()
	mask := s.Dim() - 1
	fwd := func(i uint64) uint64 { return (i + 1234) & mask }
	inv := func(i uint64) uint64 { return (i - 1234) & mask }
	for round := 0; round < 4; round++ {
		s.ApplyPermutation(fwd)
		s.ApplyPermutation(inv)
	}
	if d := s.MaxDiff(orig); d > eps {
		t.Fatalf("permutation round-trips drifted by %g", d)
	}
	if s.scratch == nil {
		t.Error("no scratch buffer retained after permutations")
	}
}

// TestSampleSerialAndChunkedAgree runs both CDF-walk implementations on
// the same draws and checks they agree on a normalised state.
func TestSampleSerialAndChunkedAgree(t *testing.T) {
	src := rng.New(808)
	s := NewRandom(engineN, src)
	par := s.Clone()
	par.SetParallelism(4)
	ser := s.Clone()
	ser.SetParallelism(1)
	srcA, srcB := rng.New(42), rng.New(42)
	for i := 0; i < 50; i++ {
		a, b := par.Sample(srcA), ser.Sample(srcB)
		if a != b {
			t.Fatalf("draw %d: chunked %d vs serial %d", i, a, b)
		}
	}
	ma := par.SampleMany(200, srcA)
	mb := ser.SampleMany(200, srcB)
	for i := range ma {
		if ma[i] != mb[i] {
			t.Fatalf("SampleMany draw %d: chunked %d vs serial %d", i, ma[i], mb[i])
		}
	}
}
