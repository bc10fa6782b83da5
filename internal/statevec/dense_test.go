package statevec

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/gates"
	"repro/internal/rng"
)

// TestMain runs the package's tests once per body of the dense block
// sweep this host can run — the host's own first, then each narrower one
// down to pure Go — so an AVX-512 host still executes the AVX2 body and
// the fallback other hosts run, under the same suite, and prints which.
// Benchmark, fuzz and profiling invocations get the host's body only.
func TestMain(m *testing.M) {
	flag.Parse()
	bodies := availableBodies()
	if !plainTestRun() {
		bodies = bodies[:1]
	}
	code := 0
	for i, body := range bodies {
		activeBody = body
		fmt.Printf("pass %d of %d: dense block sweep on the %s body\n", i+1, len(bodies), body)
		if code = m.Run(); code != 0 {
			break
		}
	}
	os.Exit(code)
}

// plainTestRun reports whether this binary was asked for tests only.
func plainTestRun() bool {
	for _, name := range []string{"test.bench", "test.fuzz", "test.fuzzworker", "test.cpuprofile", "test.memprofile"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" && f.Value.String() != "false" {
			return false
		}
	}
	return true
}

// qubitOrders returns the block layouts the dense-body property test
// sweeps for a width-w block in an n-qubit register: ascending and
// descending spreads, a shuffle, the contiguous low and high runs — the
// low one always holds qubit 0, which shares a 128-bit lane pair with its
// neighbour amplitude.
func qubitOrders(src *rng.Source, n, w uint) [][]uint {
	asc := make([]uint, w)
	desc := make([]uint, w)
	low := make([]uint, w)
	high := make([]uint, w)
	shuffled := make([]uint, w)
	perm := src.Perm(int(n))
	for j := uint(0); j < w; j++ {
		asc[j] = j * n / w
		desc[w-1-j] = asc[j]
		low[j] = j
		high[j] = n - w + j
		shuffled[j] = uint(perm[j])
	}
	return [][]uint{asc, desc, shuffled, low, high}
}

// gateProduct multiplies count random (controlled) rotations on the block
// qubits into one block, returning the block and the gates. Two gates
// leave most entries exactly zero; many make it dense. Each gate is
// applied to the block's row pairs in place, the way it acts on a state.
func gateProduct(src *rng.Source, qubits []uint, count int) ([]complex128, []gates.Gate) {
	w := len(qubits)
	dim := 1 << w
	block := make([]complex128, dim*dim)
	for i := 0; i < dim; i++ {
		block[i*dim+i] = 1
	}
	seq := make([]gates.Gate, count)
	for i := range seq {
		t, c := src.Intn(w), src.Intn(w)
		g := gates.Ry(qubits[t], src.Float64()*3)
		if src.Intn(2) == 0 {
			g = gates.Rz(qubits[t], src.Float64()*3)
		}
		tb, cm := 1<<t, 0
		if c != t && src.Intn(2) == 0 {
			g = g.WithControls(qubits[c])
			cm = 1 << c
		}
		seq[i] = g
		for r0 := 0; r0 < dim; r0++ {
			if r0&tb != 0 || r0&cm != cm {
				continue
			}
			row0, row1 := block[r0*dim:(r0+1)*dim], block[(r0|tb)*dim:(r0|tb+1)*dim]
			for x, a0 := range row0 {
				a1 := row1[x]
				row0[x] = g.Matrix[0]*a0 + g.Matrix[1]*a1
				row1[x] = g.Matrix[2]*a0 + g.Matrix[3]*a1
			}
		}
	}
	return block, seq
}

// factorShapes are the factor programmes the factored-block tests sweep,
// as factor widths: every width from two factors of two to MaxMatrixNQubits
// in four, with unequal and wider factors between.
var factorShapes = [][]uint{{2, 2}, {2, 3}, {3, 3}, {2, 2, 2}, {4, 4}, {2, 2, 2, 2}}

// blockWidth is the width of a block of factors of the given widths.
func blockWidth(widths []uint) (w uint) {
	for _, k := range widths {
		w += k
	}
	return w
}

// factorProgramme deals the bits of a block out to factors of the given
// widths — in order, or by a random permutation, so that factors own
// interleaved, non-ascending bits — and multiplies count random gates into
// each factor, on the qubits the factor's bits name in the list (see
// gateProduct). It returns the programme and all the gates.
func factorProgramme(src *rng.Source, widths []uint, qubits []uint, shuffle bool, count int) (*Factored, []gates.Gate) {
	bits := make([]uint, len(qubits))
	for j := range bits {
		bits[j] = uint(j)
	}
	if shuffle {
		for j, p := range src.Perm(len(bits)) {
			bits[j] = uint(p)
		}
	}
	var factors []Factor
	var seq []gates.Gate
	for _, k := range widths {
		own := make([]uint, k)
		for j, b := range bits[:k] {
			own[j] = qubits[b]
		}
		m, gs := gateProduct(src, own, count)
		factors = append(factors, Factor{Bits: bits[:k:k], Matrix: m})
		seq = append(seq, gs...)
		bits = bits[k:]
	}
	return NewFactored(uint(len(qubits)), factors), seq
}

// randomFactored deals a block's bits out to factors of the given widths
// by a random permutation and gives each a random unitary.
func randomFactored(src *rng.Source, widths []uint) *Factored {
	w := blockWidth(widths)
	var factors []Factor
	bits := src.Perm(int(w))
	for _, k := range widths {
		own := make([]uint, k)
		for j := range own {
			own[j] = uint(bits[j])
		}
		bits = bits[k:]
		factors = append(factors, Factor{Bits: own, Matrix: randomUnitary(src, k)})
	}
	return NewFactored(w, factors)
}

// lowLayouts adds to layouts blocks holding qubit 0 alone, qubit 1 alone,
// both and neither of the two, filled up from the top of the register:
// four consecutive groups are one cache line exactly in the last case, and
// the assembly bodies move them differently.
func lowLayouts(layouts [][]uint, n, w uint) [][]uint {
	for _, low := range [][]uint{{0}, {1}, {0, 1}, {}} {
		qubits := append([]uint{}, low...)
		for q := n - 1; uint(len(qubits)) < w; q-- {
			qubits = append(qubits, q)
		}
		layouts = append(layouts, qubits)
	}
	return layouts
}

// chunkRanges are group ranges the chunk planner never produces for a
// power-of-two group count, over 32 groups: lengths of every residue mod 4,
// starts that are not multiples of 4, a single group, none.
var chunkRanges = [][2]uint64{
	{0, 1}, {31, 32}, {3, 4}, {7, 7}, // one group, none
	{0, 32}, {2, 6}, {8, 20}, // lengths 0 mod 4
	{4, 9}, {3, 8}, // 1 mod 4
	{8, 14}, {1, 31}, // 2 mod 4
	{1, 8}, {5, 32}, {0, 31}, // 3 mod 4
}

// eachDenseBody runs f as one sub-test per body, widest first. A body the
// CPU lacks is a skip with a message, so a log shows what a host
// exercised. The comparisons below run every body themselves, so they run
// in TestMain's first pass only.
func eachDenseBody(t *testing.T, f func(t *testing.T, body cpufeat.Body)) {
	if activeBody != hostBody {
		t.Skipf("compares the bodies itself: ran in the %s pass", hostBody)
	}
	for _, body := range []cpufeat.Body{cpufeat.AVX512, cpufeat.AVX2, cpufeat.Go} {
		t.Run("body="+body.String(), func(t *testing.T) {
			if body > hostBody {
				t.Skipf("this CPU lacks the %s body", body)
			}
			f(t, body)
		})
	}
}

// sameBits reports whether two states hold identical amplitudes bit for
// bit (signed zeros and all), and the first index where they do not.
func sameBits(a, b *State) (uint64, bool) {
	for i, x := range a.amp {
		y := b.amp[i]
		if math.Float64bits(real(x)) != math.Float64bits(real(y)) || math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
			return uint64(i), false
		}
	}
	return 0, true
}

// compareBodies holds got, computed on body, against want, computed on a
// narrower one: the two assembly bodies do the same operations in the
// same order with the same roundings, so they must agree exactly; pure Go
// rounds each product before adding, so it agrees to 1e-12.
func compareBodies(t *testing.T, what string, body, oracle cpufeat.Body, got, want *State) {
	t.Helper()
	if oracle != cpufeat.Go {
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("%s: %s and %s differ at amplitude %d: %v vs %v", what, body, oracle, i, got.amp[i], want.amp[i])
		}
	} else if d := got.MaxDiff(want); d > 1e-12 {
		t.Fatalf("%s: %s and %s differ by %g", what, body, oracle, d)
	}
}

// TestDenseBodiesAgree is the property test of the dense block sweep: over
// every width, every register size from a single group up, serial and
// pooled, and every qubit layout of qubitOrders, each body agrees with
// every narrower one the host runs on random dense blocks — bit for bit
// between the two assembly bodies, to 1e-12 against pure Go — and to 1e-10
// with applying a block's gates one by one. Each body's "factored"
// sub-test does the same for ApplyFactored (factoredBodiesAgree).
func TestDenseBodiesAgree(t *testing.T) {
	eachDenseBody(t, func(t *testing.T, body cpufeat.Body) {
		src := rng.New(2016)
		got, want := New(1), New(1)
		check := func(name string, init *State, qubits []uint, m []complex128, seq []gates.Gate, workers int) {
			t.Helper()
			what := fmt.Sprintf("%s n=%d qubits=%v workers=%d", name, init.NumQubits(), qubits, workers)
			if got.NumQubits() != init.NumQubits() {
				got, want = init.Clone(), init.Clone()
			}
			got.SetParallelism(workers)
			want.SetParallelism(workers)
			got.CopyFrom(init)
			withDenseBody(body, func() { got.ApplyMatrixN(m, qubits) })
			for oracle := body; oracle > cpufeat.Go; {
				oracle--
				want.CopyFrom(init)
				withDenseBody(oracle, func() { want.ApplyMatrixN(m, qubits) })
				compareBodies(t, what, body, oracle, got, want)
			}
			if seq == nil {
				return
			}
			want.CopyFrom(init)
			for _, g := range seq {
				want.ApplyGate(g)
			}
			if d := got.MaxDiff(want); d > 1e-10 {
				t.Fatalf("%s: the %s block differs from its gates by %g", what, body, d)
			}
		}
		cases := func(n, w uint, workers []int) {
			init := NewRandom(n, src)
			for _, qubits := range qubitOrders(src, n, w) {
				random := make([]complex128, 1<<(2*w))
				for i := range random {
					random[i] = src.Complex()
				}
				sparse, sparseSeq := gateProduct(src, qubits, 2)
				dense, denseSeq := gateProduct(src, qubits, 3*int(w))
				for _, k := range workers {
					check("random", init, qubits, random, nil, k)
					check("sparse", init, qubits, sparse, sparseSeq, k)
					check("dense", init, qubits, dense, denseSeq, k)
				}
			}
		}
		for w := uint(1); w <= MaxMatrixNQubits; w++ {
			for n := w; n <= 12; n++ {
				cases(n, w, []int{1})
			}
		}
		// Registers with enough groups to reach the worker pool, and more
		// groups per chunk than one assembly call takes.
		for _, big := range []struct{ n, w uint }{{14, 2}, {15, 3}, {16, 4}, {17, 4}} {
			cases(big.n, big.w, []int{1, 2, 3})
		}

		// Factored blocks, as a sub-test so a log names the body that ran
		// them: ApplyFactored on this body against the dense pure-Go sweep
		// of the multiplied-out product, to 1e-12, and against the factors'
		// gates one by one.
		t.Run("factored", func(t *testing.T) { factoredBodiesAgree(t, src, body) })
	})
}

// factoredBodiesAgree is TestDenseBodiesAgree's sweep for factored blocks
// on one body: every shape in factorShapes, registers from a single group
// (fewer than one quad) up, every layout of qubitOrders, bits dealt to the
// factors in order and shuffled, and two pooled sizes.
func factoredBodiesAgree(t *testing.T, src *rng.Source, body cpufeat.Body) {
	got, want := New(1), New(1)
	cases := func(n uint, widths []uint, workers []int) {
		init := NewRandom(n, src)
		w := blockWidth(widths)
		for _, qubits := range qubitOrders(src, n, w) {
			for _, shuffle := range []bool{false, true} {
				f, seq := factorProgramme(src, widths, qubits, shuffle, 6)
				product := f.Dense()
				for _, k := range workers {
					what := fmt.Sprintf("factors %v n=%d qubits=%v shuffled=%v workers=%d", widths, n, qubits, shuffle, k)
					if got.NumQubits() != n {
						got, want = init.Clone(), init.Clone()
					}
					got.SetParallelism(k)
					want.SetParallelism(k)
					got.CopyFrom(init)
					withDenseBody(body, func() { got.ApplyFactored(f, qubits) })
					want.CopyFrom(init)
					withDenseBody(cpufeat.Go, func() { want.ApplyMatrixN(product, qubits) })
					if d := got.MaxDiff(want); d > 1e-12 {
						t.Fatalf("%s: factored on %s differs from the dense product by %g", what, body, d)
					}
					want.CopyFrom(init)
					for _, g := range seq {
						want.ApplyGate(g)
					}
					if d := got.MaxDiff(want); d > 1e-10 {
						t.Fatalf("%s: factored on %s differs from its gates by %g", what, body, d)
					}
				}
			}
		}
	}
	for _, widths := range factorShapes {
		w := blockWidth(widths)
		for n := w; n <= w+4; n++ {
			cases(n, widths, []int{1})
		}
	}
	cases(16, []uint{2, 2}, []int{1, 2, 3})
	cases(17, []uint{2, 3}, []int{1, 2, 3})
}

// TestDenseChunkRanges drives the chunk function directly over ranges the
// chunk planner never produces for a power-of-two group count — lengths of
// every residue mod 4, starts that are not multiples of 4, a single group,
// none — so the ZMM body's hand-over of its 0-3 left-over groups, the YMM
// body's one-group tail and the start-index spread are exercised from the
// smallest tile (w=2) to the largest (w=8). The layouts add, to
// qubitOrders, blocks holding qubit 0 alone, qubit 1 alone, both and
// neither of the two: four consecutive groups are one cache line exactly
// in the last case, and the gather is a different one. On the ZMM body the
// factored sweep of every shape in factorShapes goes over the same ranges
// and layouts.
func TestDenseChunkRanges(t *testing.T) {
	eachDenseBody(t, func(t *testing.T, body cpufeat.Body) {
		if body == cpufeat.Go {
			t.Skip("the pure-Go body is the oracle here")
		}
		src := rng.New(77)
		for w := uint(2); w <= MaxMatrixNQubits; w++ {
			n := w + 5 // 32 groups
			for _, qubits := range lowLayouts(qubitOrders(src, n, w), n, w) {
				m := make([]complex128, 1<<(2*w))
				for i := range m {
					m[i] = src.Complex()
				}
				// chunk runs groups [lo, hi) of st through one body.
				chunk := func(body cpufeat.Body, st *State, lo, hi uint64) {
					if body == cpufeat.Go {
						denseChunkGo(st.amp, m, st.layoutFor(qubits), lo, hi)
						return
					}
					withDenseBody(body, func() { denseChunkAsm(st.amp, m, st.layoutFor(qubits), lo, hi) })
				}
				for _, r := range chunkRanges {
					init := NewRandom(n, src)
					got := init.Clone()
					chunk(body, got, r[0], r[1])
					what := fmt.Sprintf("w=%d qubits=%v groups [%d,%d)", w, qubits, r[0], r[1])
					for oracle := body; oracle > cpufeat.Go; {
						oracle--
						want := init.Clone()
						chunk(oracle, want, r[0], r[1])
						compareBodies(t, what, body, oracle, got, want)
					}
				}
			}
		}
		if body != cpufeat.AVX512 {
			return // the only body with an in-tile factored sweep of its own
		}
		t.Run("factored", func(t *testing.T) { factoredChunkRanges(t, src) })
	})
	s := New(6)
	lay := s.layoutFor([]uint{0, 3})
	for _, r := range [][2]uint64{{3, 2}, {0, 17}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("denseChunk over groups [%d,%d) of 16 did not panic", r[0], r[1])
				}
			}()
			denseChunk(s.amp, make([]complex128, 16), lay, r[0], r[1])
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("factorChunk over groups [%d,%d) of 16 did not panic", r[0], r[1])
				}
			}()
			factorChunk(s.amp, nil, nil, lay, r[0], r[1])
		}()
	}
}

// factoredChunkRanges is TestDenseChunkRanges's sweep for the ZMM body's
// factored sweep: the same ranges and layouts, the ZMM body with the
// pure-Go in-tile body on its 0-3 left-over groups against the in-tile
// body alone and against the dense pure-Go sweep of the product.
func factoredChunkRanges(t *testing.T, src *rng.Source) {
	for _, widths := range factorShapes {
		w := blockWidth(widths)
		n := w + 5
		for _, qubits := range lowLayouts(qubitOrders(src, n, w), n, w) {
			f, _ := factorProgramme(src, widths, qubits, len(qubits)%2 == 0, 6)
			product := f.Dense()
			for _, r := range chunkRanges {
				init := NewRandom(n, src)
				got, inTile, dense := init.Clone(), init.Clone(), init.Clone()
				lay := got.layoutFor(qubits)
				factorChunk(got.amp, f.steps, got.factorPasses(f, lay), lay, r[0], r[1])
				factorChunkGo(inTile.amp, f.steps, inTile.layoutFor(qubits), r[0], r[1])
				denseChunkGo(dense.amp, product, dense.layoutFor(qubits), r[0], r[1])
				what := fmt.Sprintf("factors %v qubits=%v groups [%d,%d)", widths, qubits, r[0], r[1])
				if d := got.MaxDiff(inTile); d > 1e-12 {
					t.Fatalf("%s: the ZMM body differs from the pure-Go in-tile body by %g", what, d)
				}
				if d := got.MaxDiff(dense); d > 1e-12 {
					t.Fatalf("%s: the ZMM body differs from the dense product by %g", what, d)
				}
			}
		}
	}
}

// embedFactor spreads one factor over a w-bit block: the factor on its own
// bits, the identity on the others.
func embedFactor(w uint, f Factor) []complex128 {
	dim := 1 << w
	var own int
	for _, b := range f.Bits {
		own |= 1 << b
	}
	m := make([]complex128, dim*dim)
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			if r&^own == c&^own {
				m[r*dim+c] = f.Matrix[localIndex(f.Bits, r)<<len(f.Bits)|localIndex(f.Bits, c)]
			}
		}
	}
	return m
}

// TestFactoredMutationsAreCaught shows the factored comparisons have teeth,
// on every body this pass runs and on the in-tile bodies directly. A step
// whose in table has two offsets exchanged — still inside the tile, so the
// assembly stays memory-safe — must miss the dense product. And the steps
// run in the order listed: two factors that share a bit do not commute (no
// NewFactored block has such a pair, so the steps are made by hand), the
// listed order must match the product taken in that order, and the other
// order must miss it.
func TestFactoredMutationsAreCaught(t *testing.T) {
	src := rng.New(1609)
	apply := func(f *Factored, init *State, qubits []uint) []*State {
		whole := init.Clone()
		whole.ApplyFactored(f, qubits)
		inTile := init.Clone()
		factorChunkGo(inTile.amp, f.steps, inTile.layoutFor(qubits), 0, inTile.Dim()>>f.w)
		got := []*State{whole, inTile}
		if hostBody == cpufeat.AVX512 {
			zmm := init.Clone()
			lay := zmm.layoutFor(qubits)
			factorChunk(zmm.amp, f.steps, zmm.factorPasses(f, lay), lay, 0, zmm.Dim()>>f.w)
			got = append(got, zmm)
		}
		return got
	}
	reference := func(init *State, m []complex128, qubits []uint) *State {
		want := init.Clone()
		withDenseBody(cpufeat.Go, func() { want.ApplyMatrixN(m, qubits) })
		return want
	}

	t.Run("table offset", func(t *testing.T) {
		qubits := []uint{6, 2, 4, 3}
		init := NewRandom(8, src)
		good := NewFactored(4, []Factor{{Bits: []uint{0, 2}, Matrix: randomUnitary(src, 2)}, {Bits: []uint{3, 1}, Matrix: randomUnitary(src, 2)}})
		want := reference(init, good.Dense(), qubits)
		for i, got := range apply(good, init, qubits) {
			if d := got.MaxDiff(want); d > 1e-12 {
				t.Fatalf("path %d: the unmutated block differs from its product by %g", i, d)
			}
		}
		bad := &Factored{w: good.w, steps: append([]factorStep{}, good.steps...)}
		in := append([]uint64{}, bad.steps[0].in...)
		in[1], in[2] = in[2], in[1]
		bad.steps[0].in = in
		// The whole-block entry reads the tables on the ZMM body only; the
		// other bodies sweep factor by factor from the bits.
		for i, got := range apply(bad, init, qubits)[1:] {
			if d := got.MaxDiff(want); d < 1e-6 {
				t.Errorf("in-tile path %d: a step with two table offsets exchanged still matches the product (%g)", i, d)
			}
		}
	})

	t.Run("step order", func(t *testing.T) {
		const w = 3
		qubits := []uint{5, 0, 3}
		init := NewRandom(7, src)
		a := Factor{Bits: []uint{0, 1}, Matrix: randomUnitary(src, 2)}
		b := Factor{Bits: []uint{1, 2}, Matrix: randomUnitary(src, 2)}
		stepA := newFactorStep(w, a)
		stepB := newFactorStep(w, b)
		// a first, then b: the product is b's embedding times a's.
		ea, eb := embedFactor(w, a), embedFactor(w, b)
		product := make([]complex128, 64)
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				for k := 0; k < 8; k++ {
					product[r*8+c] += eb[r*8+k] * ea[k*8+c]
				}
			}
		}
		want := reference(init, product, qubits)
		for i, got := range apply(&Factored{w: w, steps: []factorStep{stepA, stepB}}, init, qubits) {
			if d := got.MaxDiff(want); d > 1e-12 {
				t.Errorf("path %d: steps a, b differ from the product b·a by %g", i, d)
			}
		}
		for i, got := range apply(&Factored{w: w, steps: []factorStep{stepB, stepA}}, init, qubits) {
			if d := got.MaxDiff(want); d < 1e-6 {
				t.Errorf("path %d: steps b, a still match the product b·a (%g)", i, d)
			}
		}
	})
}

// TestChunkPlanPartitions pins what the unchecked assembly relies on and
// the race detector cannot see into: the chunks a sweep hands its workers
// are disjoint, in order, and cover [0, size) exactly.
func TestChunkPlanPartitions(t *testing.T) {
	for _, size := range []uint64{1, 7, 8, 1 << 12, 1<<12 + 8, 1 << 14, 1<<16 + 24} {
		for w := 1; w <= 7; w++ {
			ck := makeChunks(size, w)
			next := uint64(0)
			for i := 0; i < ck.n; i++ {
				lo, hi := ck.bounds(i)
				if lo != next || hi <= lo || hi > size {
					t.Fatalf("size %d, %d workers: chunk %d is [%d,%d), previous ended at %d", size, w, i, lo, hi, next)
				}
				next = hi
			}
			if next != size {
				t.Fatalf("size %d, %d workers: chunks end at %d", size, w, next)
			}
		}
	}
}

// TestBlockKernelValidation holds every validation panic of the block
// kernels to its message and to firing before any amplitude moves, under
// every body (TestMain's passes).
func TestBlockKernelValidation(t *testing.T) {
	src := rng.New(5)
	s := NewRandom(4, src)
	want := s.Clone()
	m4 := new([16]complex128)
	f22 := NewFactored(4, []Factor{{[]uint{0, 1}, m4[:]}, {[]uint{2, 3}, m4[:]}})
	for _, tc := range []struct {
		name, msg string
		run       func()
	}{
		{"no qubits", "statevec: ApplyMatrixN with no qubits", func() { s.ApplyMatrixN(nil, nil) }},
		{"too wide", "statevec: block width 9 exceeds MaxMatrixNQubits=8",
			func() { s.ApplyMatrixN(nil, []uint{0, 1, 2, 3, 0, 1, 2, 3, 0}) }},
		{"short matrix", "statevec: matrix has 15 entries, want 16 for 2 qubits",
			func() { s.ApplyMatrixN(make([]complex128, 15), []uint{0, 1}) }},
		{"long matrix", "statevec: matrix has 65 entries, want 64 for 3 qubits",
			func() { s.ApplyMatrixN(make([]complex128, 65), []uint{0, 1, 2}) }},
		{"out of range", "statevec: qubit out of range", func() { s.ApplyMatrixN(make([]complex128, 64), []uint{0, 4, 2}) }},
		{"duplicate", "statevec: duplicate qubit in ApplyMatrixN", func() { s.ApplyMatrixN(make([]complex128, 64), []uint{3, 1, 3}) }},
		{"diag width", "statevec: ApplyDiagN width out of range", func() { s.ApplyDiagN(nil, nil) }},
		{"diag size", "statevec: diagonal has 3 entries, want 4", func() { s.ApplyDiagN(make([]complex128, 3), []uint{0, 1}) }},
		{"diag out of range", "statevec: qubit out of range", func() { s.ApplyDiagN(make([]complex128, 4), []uint{0, 9}) }},
		{"diag duplicate", "statevec: duplicate qubit in ApplyDiagN", func() { s.ApplyDiagN(make([]complex128, 4), []uint{1, 1}) }},
		{"factored nil", "statevec: ApplyFactored with no block", func() { s.ApplyFactored(nil, []uint{0, 1, 2, 3}) }},
		{"factored width", "statevec: factored block of width 4 applied to 3 qubits", func() { s.ApplyFactored(f22, []uint{0, 1, 2}) }},
		{"factored out of range", "statevec: qubit out of range", func() { s.ApplyFactored(f22, []uint{0, 1, 2, 4}) }},
		{"factored duplicate", "statevec: duplicate qubit in ApplyFactored", func() { s.ApplyFactored(f22, []uint{0, 1, 2, 1}) }},
		{"factors: one", "statevec: a factored block needs at least two factors", func() { NewFactored(2, []Factor{{[]uint{0, 1}, m4[:]}}) }},
		{"factors: too wide", "statevec: block width 9 exceeds MaxMatrixNQubits=8", func() { NewFactored(9, nil) }},
		{"factors: single bit", "statevec: factor of 1 bits in a 3-bit block, want 2..3",
			func() { NewFactored(3, []Factor{{[]uint{0, 1}, m4[:]}, {[]uint{2}, m4[:4]}}) }},
		{"factors: matrix size", "statevec: factor matrix has 15 entries, want 16 for 2 bits",
			func() { NewFactored(4, []Factor{{[]uint{0, 1}, m4[:]}, {[]uint{2, 3}, m4[:15]}}) }},
		{"factors: bit outside", "statevec: factor bit outside the block", func() { NewFactored(4, []Factor{{[]uint{0, 1}, m4[:]}, {[]uint{2, 4}, m4[:]}}) }},
		{"factors: duplicate bit", "statevec: duplicate bit in a factor", func() { NewFactored(4, []Factor{{[]uint{0, 1}, m4[:]}, {[]uint{2, 2}, m4[:]}}) }},
		{"factors: overlap", "statevec: factors of a block overlap", func() { NewFactored(4, []Factor{{[]uint{0, 1}, m4[:]}, {[]uint{1, 2}, m4[:]}}) }},
		{"factors: bits left over", "statevec: factors cover 4 of the block's 5 bits",
			func() { NewFactored(5, []Factor{{[]uint{0, 1}, m4[:]}, {[]uint{2, 4}, m4[:]}}) }},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.msg {
					t.Errorf("%s: panic %v, want %q", tc.name, got, tc.msg)
				}
			}()
			tc.run()
		}()
		for i, a := range s.amp {
			if a != want.amp[i] {
				t.Fatalf("%s: amplitude %d changed before the panic", tc.name, i)
			}
		}
	}
}

// FuzzApplyMatrixN draws the register size, the qubit list and the block
// from the input: a list checkMatrixN rejects must panic with a statevec
// message and leave the state alone; an accepted one must run without a
// fault through every body the host has, identically bit for bit through
// the assembly bodies and to 1e-12 through pure Go. The same list then goes
// under a factored block with factors drawn from the seed, held to the same
// rejections and, through every body, to the dense pure-Go sweep of its
// product.
func FuzzApplyMatrixN(f *testing.F) {
	f.Add(uint8(4), uint64(1), []byte{0, 1})
	f.Add(uint8(3), uint64(2), []byte{2, 1, 0})    // n = w: one group
	f.Add(uint8(9), uint64(3), []byte{8, 0, 4, 2}) // descending, holds qubit 0
	f.Add(uint8(10), uint64(4), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(5), uint64(5), []byte{1, 1})   // duplicate
	f.Add(uint8(5), uint64(6), []byte{1, 200}) // out of range
	f.Add(uint8(5), uint64(7), []byte{})
	f.Add(uint8(11), uint64(8), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(10), uint64(9), []byte{9, 5, 2})                // qubits 0 and 1 outside: contiguous quads
	f.Add(uint8(6), uint64(10), []byte{1, 4, 3, 5})             // 4 groups, qubit 1 inside
	f.Add(uint8(11), uint64(11), []byte{9, 2, 7, 4, 10})        // factors of a width-5 block, quads are runs
	f.Add(uint8(10), uint64(12), []byte{3, 0, 8, 5, 6, 2, 9})   // width 7, qubit 0 inside: lanes
	f.Add(uint8(9), uint64(13), []byte{7, 6, 5, 4, 3, 2, 1, 0}) // width 8, two groups: in-tile Go only
	f.Fuzz(func(t *testing.T, nRaw uint8, seed uint64, qs []byte) {
		n := 1 + uint(nRaw)%11
		if len(qs) > MaxMatrixNQubits+1 {
			qs = qs[:MaxMatrixNQubits+1]
		}
		qubits := make([]uint, len(qs))
		valid := len(qs) >= 1 && len(qs) <= MaxMatrixNQubits
		var seen uint64
		for j, q := range qs {
			qubits[j] = uint(q)
			if uint(q) >= n || seen&(1<<(q%64)) != 0 {
				valid = false
			}
			seen |= 1 << (q % 64)
		}
		src := rng.New(seed)
		w := uint(len(qubits)) % (MaxMatrixNQubits + 1)
		m := make([]complex128, 1<<(2*w))
		for i := range m {
			m[i] = src.Complex()
		}
		init := NewRandom(n, src)
		what := fmt.Sprintf("n=%d qubits=%v", n, qubits)
		var wider *State
		for _, body := range availableBodies() {
			got := init.Clone()
			var msg any
			withDenseBody(body, func() {
				defer func() { msg = recover() }()
				got.ApplyMatrixN(m, qubits)
			})
			if !valid {
				if text, ok := msg.(string); !ok || !strings.HasPrefix(text, "statevec: ") {
					t.Fatalf("%s, %s body: want a statevec validation panic, got %v", what, body, msg)
				}
				if _, ok := sameBits(got, init); !ok {
					t.Fatalf("%s, %s body: a rejected block moved amplitudes", what, body)
				}
				continue
			}
			if msg != nil {
				t.Fatalf("%s, %s body: valid block panicked: %v", what, body, msg)
			}
			if wider != nil {
				compareBodies(t, what, body+1, body, wider, got)
			}
			wider = got
		}

		// The same list under a factored block: the seed splits the width
		// into factors of two or three bits (a list too short or too long
		// for one gets a block of four, which checkFactored must refuse).
		fw := w
		if fw < 4 {
			fw = 4
		}
		var widths []uint
		for left := int(fw); left > 0; {
			k := 2 + src.Intn(2)
			if left-k < 2 { // nothing a further factor could take
				k = left
				if len(widths) == 0 {
					k = left - 2
				}
			}
			widths = append(widths, uint(k))
			left -= k
		}
		f := randomFactored(src, widths)
		product := f.Dense()
		fits := valid && w == fw
		var want *State
		if fits {
			want = init.Clone()
			withDenseBody(cpufeat.Go, func() { want.ApplyMatrixN(product, qubits) })
		}
		for _, body := range availableBodies() {
			got := init.Clone()
			var msg any
			withDenseBody(body, func() {
				defer func() { msg = recover() }()
				got.ApplyFactored(f, qubits)
			})
			if !fits {
				if text, ok := msg.(string); !ok || !strings.HasPrefix(text, "statevec: ") {
					t.Fatalf("%s, factors %v, %s body: want a statevec validation panic, got %v", what, widths, body, msg)
				}
				if _, ok := sameBits(got, init); !ok {
					t.Fatalf("%s, factors %v, %s body: a rejected block moved amplitudes", what, widths, body)
				}
				continue
			}
			if msg != nil {
				t.Fatalf("%s, factors %v, %s body: valid block panicked: %v", what, widths, body, msg)
			}
			if d := got.MaxDiff(want); d > 1e-12 {
				t.Fatalf("%s, factors %v: %s differs from the dense product by %g", what, widths, body, d)
			}
		}
	})
}
