package statevec

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/gates"
	"repro/internal/rng"
)

// TestMain runs the package's tests twice on a host that runs the
// assembly body of the dense block sweep: once as shipped, once with the
// sweep forced onto the pure-Go body, so the fallback other hosts run
// passes the same suite. Benchmark, fuzz and profiling invocations get one
// pass.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && useDenseAsm && plainTestRun() {
		useDenseAsm = false
		fmt.Println("second pass: dense block sweep on the pure-Go body")
		code = m.Run()
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

// TestDenseBodiesAgree is the property test of the dense block sweep: over
// every width, every register size from a single group up, serial and
// pooled, and every qubit layout of qubitOrders, the assembly body and the
// pure-Go body agree to 1e-12 on random dense blocks, and both agree to
// 1e-10 with applying a block's gates one by one.
func TestDenseBodiesAgree(t *testing.T) {
	if !useDenseAsm {
		t.Skip("the dense block sweep has one body on this host")
	}
	src := rng.New(2016)
	check := func(name string, init *State, qubits []uint, m []complex128, seq []gates.Gate, workers int) {
		t.Helper()
		n := init.NumQubits()
		asm, pure := init.Clone(), init.Clone()
		asm.SetParallelism(workers)
		pure.SetParallelism(workers)
		asm.ApplyMatrixN(m, qubits)
		withDenseBody(false, func() { pure.ApplyMatrixN(m, qubits) })
		if d := asm.MaxDiff(pure); d > 1e-12 {
			t.Fatalf("%s n=%d qubits=%v workers=%d: bodies differ by %g", name, n, qubits, workers, d)
		}
		if seq == nil {
			return
		}
		pure.CopyFrom(init)
		for _, g := range seq {
			pure.ApplyGate(g)
		}
		if d := asm.MaxDiff(pure); d > 1e-10 {
			t.Fatalf("%s n=%d qubits=%v workers=%d: block differs from its gates by %g", name, n, qubits, workers, d)
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
}

// TestDenseChunkRanges drives the chunk function directly over ranges the
// chunk planner never produces for a power-of-two group count — odd
// starts, odd lengths, a single group — so the assembly's one-group tail
// and its start-index spread are exercised at every width.
func TestDenseChunkRanges(t *testing.T) {
	if !useDenseAsm {
		t.Skip("the dense block sweep has one body on this host")
	}
	src := rng.New(77)
	for w := uint(2); w <= 5; w++ {
		n := w + 5 // 32 groups
		for _, qubits := range qubitOrders(src, n, w) {
			m := make([]complex128, 1<<(2*w))
			for i := range m {
				m[i] = src.Complex()
			}
			for _, r := range [][2]uint64{{0, 1}, {31, 32}, {3, 4}, {1, 8}, {5, 32}, {0, 31}, {7, 7}} {
				asm := NewRandom(n, src)
				pure := asm.Clone()
				denseChunkAsm(asm.amp, m, asm.layoutFor(qubits), r[0], r[1])
				denseChunkGo(pure.amp, m, pure.layoutFor(qubits), r[0], r[1])
				if d := asm.MaxDiff(pure); d > 1e-12 {
					t.Fatalf("w=%d qubits=%v groups [%d,%d): bodies differ by %g", w, qubits, r[0], r[1], d)
				}
			}
		}
	}
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
	}
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
// both bodies (TestMain's second pass).
func TestBlockKernelValidation(t *testing.T) {
	src := rng.New(5)
	s := NewRandom(4, src)
	want := s.Clone()
	m4 := new([16]complex128)
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
		{"matrix4 same qubit", "statevec: ApplyMatrix4 requires distinct qubits", func() { s.ApplyMatrix4(m4, 2, 2) }},
		{"matrix4 out of range", "statevec: qubit out of range", func() { s.ApplyMatrix4(m4, 1, 4) }},
		{"diag width", "statevec: ApplyDiagN width out of range", func() { s.ApplyDiagN(nil, nil) }},
		{"diag size", "statevec: diagonal has 3 entries, want 4", func() { s.ApplyDiagN(make([]complex128, 3), []uint{0, 1}) }},
		{"diag out of range", "statevec: qubit out of range", func() { s.ApplyDiagN(make([]complex128, 4), []uint{0, 9}) }},
		{"diag duplicate", "statevec: duplicate qubit in ApplyDiagN", func() { s.ApplyDiagN(make([]complex128, 4), []uint{1, 1}) }},
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
// fault and identically (1e-12) through both bodies.
func FuzzApplyMatrixN(f *testing.F) {
	f.Add(uint8(4), uint64(1), []byte{0, 1})
	f.Add(uint8(3), uint64(2), []byte{2, 1, 0})    // n = w: one group
	f.Add(uint8(9), uint64(3), []byte{8, 0, 4, 2}) // descending, holds qubit 0
	f.Add(uint8(10), uint64(4), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(5), uint64(5), []byte{1, 1})   // duplicate
	f.Add(uint8(5), uint64(6), []byte{1, 200}) // out of range
	f.Add(uint8(5), uint64(7), []byte{})
	f.Add(uint8(11), uint64(8), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
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
		asm, pure := init.Clone(), init.Clone()
		run := func(s *State) (msg any) {
			defer func() { msg = recover() }()
			s.ApplyMatrixN(m, qubits)
			return nil
		}
		msgAsm := run(asm)
		var msgPure any
		withDenseBody(false, func() { msgPure = run(pure) })
		if !valid {
			for _, msg := range []any{msgAsm, msgPure} {
				if text, ok := msg.(string); !ok || !strings.HasPrefix(text, "statevec: ") {
					t.Fatalf("n=%d qubits=%v: want a statevec validation panic, got %v", n, qubits, msg)
				}
			}
			if asm.MaxDiff(init) != 0 || pure.MaxDiff(init) != 0 {
				t.Fatalf("n=%d qubits=%v: a rejected block moved amplitudes", n, qubits)
			}
			return
		}
		if msgAsm != nil || msgPure != nil {
			t.Fatalf("n=%d qubits=%v: valid block panicked: %v / %v", n, qubits, msgAsm, msgPure)
		}
		if d := asm.MaxDiff(pure); d > 1e-12 {
			t.Fatalf("n=%d qubits=%v: bodies differ by %g", n, qubits, d)
		}
	})
}
