package statevec

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bitops"
	"repro/internal/cpufeat"
	"repro/internal/rng"
)

// fieldAddReference is op's map written out bit by bit, the oracle the
// inline kernel is checked against through ApplyPermutation.
func fieldAddReference(op FieldAdd) func(uint64) uint64 {
	return func(i uint64) uint64 {
		a := (i>>op.APos)&bitops.Mask(op.Width) + bitops.Bit(i, op.CarryIn)
		if op.HasMul {
			a *= (i >> op.MulPos) & bitops.Mask(op.Width)
		}
		b := (i >> op.BPos) & bitops.Mask(op.Width)
		if op.Subtract {
			return bitops.DepositBits(i, op.BPos, op.Width, (b-a)&bitops.Mask(op.Width))
		}
		sum := a + b
		i = bitops.DepositBits(i, op.BPos, op.Width, sum&bitops.Mask(op.Width))
		if op.HasCarryOut {
			i ^= (sum >> op.Width) << op.CarryOut
		}
		return i
	}
}

// randomFieldAdd draws a valid field addition on n qubits: field width,
// the placements in any order, and the carry qubits among the rest.
func randomFieldAdd(src *rng.Source, n uint) FieldAdd {
	for {
		w := 1 + uint(src.Intn(int(n-2)/2))
		op := FieldAdd{
			Width: w, APos: uint(src.Intn(int(n - w + 1))), BPos: uint(src.Intn(int(n - w + 1))),
			CarryIn: uint(src.Intn(int(n))), CarryOut: uint(src.Intn(int(n))),
		}
		switch src.Intn(5) {
		case 1:
			op.Subtract = true
		case 2:
			op.HasCarryOut = true
		case 3, 4:
			op.HasMul, op.MulPos = true, uint(src.Intn(int(n-w+1)))
			op.Subtract = src.Intn(2) == 1
		}
		if op.Check(n) == nil {
			return op
		}
	}
}

// TestFieldAddMatchesPermutation is the kernel's property test: over
// random valid placements on small registers and on one large enough to
// run in parallel chunks, ApplyFieldAdd must move every amplitude exactly
// where the reference bijection through ApplyPermutation does.
func TestFieldAddMatchesPermutation(t *testing.T) {
	src := rng.New(41)
	for trial := 0; trial < 500; trial++ {
		n := 4 + uint(src.Intn(7))
		workers := 1
		if trial%10 == 0 {
			n, workers = 13, 3
		}
		op := randomFieldAdd(src, n)
		got := NewRandom(n, src)
		got.SetParallelism(workers)
		want := got.Clone()
		got.ApplyFieldAdd(op)
		want.ApplyPermutation(fieldAddReference(op))
		if d := got.MaxDiff(want); d != 0 {
			t.Fatalf("n=%d workers=%d %+v: kernel differs from the reference permutation by %g", n, workers, op, d)
		}
	}
}

func TestFieldAddValidation(t *testing.T) {
	cases := map[string]FieldAdd{
		"zero width":         {APos: 0, BPos: 2, Width: 0, CarryIn: 4},
		"a out of range":     {APos: 4, BPos: 0, Width: 2, CarryIn: 2},
		"b out of range":     {APos: 0, BPos: 4, Width: 2, CarryIn: 2},
		"overlap":            {APos: 0, BPos: 1, Width: 2, CarryIn: 4},
		"carry-in inside":    {APos: 0, BPos: 2, Width: 2, CarryIn: 3},
		"carry-in oob":       {APos: 0, BPos: 2, Width: 2, CarryIn: 5},
		"carry-out inside":   {APos: 0, BPos: 2, Width: 2, CarryIn: 4, CarryOut: 0, HasCarryOut: true},
		"carry-out is carry": {APos: 0, BPos: 2, Width: 2, CarryIn: 4, CarryOut: 4, HasCarryOut: true},
		"carry-out oob":      {APos: 0, BPos: 2, Width: 2, CarryIn: 4, CarryOut: 5, HasCarryOut: true},
		"subtract carry-out": {APos: 0, BPos: 2, Width: 2, CarryIn: 4, CarryOut: 3, HasCarryOut: true, Subtract: true},
		"multiplier oob":     {APos: 0, BPos: 1, Width: 1, CarryIn: 2, MulPos: 5, HasMul: true},
		"multiplier overlap": {APos: 0, BPos: 1, Width: 1, CarryIn: 2, MulPos: 1, HasMul: true},
		"multiplier carry":   {APos: 0, BPos: 1, Width: 1, CarryIn: 2, MulPos: 2, HasMul: true},
		"multiply carry-out": {APos: 0, BPos: 1, Width: 1, CarryIn: 2, MulPos: 3, HasMul: true, CarryOut: 4, HasCarryOut: true},
	}
	for name, op := range cases {
		t.Run(name, func(t *testing.T) {
			if op.Check(5) == nil {
				t.Fatal("Check accepted it")
			}
			s := NewRandom(5, rng.New(1))
			before := s.Clone()
			mustPanic(t, name, func() { s.ApplyFieldAdd(op) })
			if s.MaxDiff(before) != 0 {
				t.Error("state modified before the panic")
			}
		})
	}
}

// ascendingRuns returns w strictly ascending qubits of an n-qubit register
// forming the given number of runs of consecutive qubits, with a gap of at
// least one qubit between runs.
func ascendingRuns(src *rng.Source, n, w uint, runs int) []uint {
	for {
		// Choose which of the w-1 joints between neighbours are gaps.
		gaps := make([]uint, w)
		for _, j := range src.Perm(int(w - 1))[:runs-1] {
			gaps[j+1] = 1 + uint(src.Intn(2))
		}
		qs := make([]uint, w)
		q := uint(src.Intn(3))
		for j := range qs {
			q += gaps[j]
			qs[j] = q
			q++
		}
		if qs[w-1] < n {
			return qs
		}
	}
}

func randomPhases(src *rng.Source, w uint) []complex128 {
	d := make([]complex128, 1<<w)
	for i := range d {
		s, c := math.Sincos(2 * math.Pi * src.Float64())
		d[i] = complex(c, s)
	}
	return d
}

// applyDiagonalFunc multiplies amplitude i by phase(i): the reference the
// table kernel is held to beyond ApplyDiagN's width.
func (s *State) applyDiagonalFunc(phase func(uint64) complex128) {
	for i := range s.amp {
		s.amp[i] *= phase(uint64(i))
	}
}

// TestDiagTableMatchesDiagN checks the run-indexed diagonal against the
// block-layout kernel where both apply (widths up to MaxMatrixNQubits) and
// against the per-amplitude reference beyond (widths 9 to 16), on qubit
// lists of one, two and three runs, serial and parallel.
func TestDiagTableMatchesDiagN(t *testing.T) {
	src := rng.New(43)
	const n = 18
	base := NewRandom(n, src)
	for w := uint(1); w <= 16; w++ {
		for runs := 1; runs <= 3 && runs <= int(w); runs++ {
			qs := ascendingRuns(src, n, w, runs)
			d := randomPhases(src, w)
			want := base.Clone()
			if w <= MaxMatrixNQubits {
				want.ApplyDiagN(d, qs)
			} else {
				want.applyDiagonalFunc(func(i uint64) complex128 {
					var x uint64
					for j, q := range qs {
						x |= bitops.Bit(i, q) << uint(j)
					}
					return d[x]
				})
			}
			for _, workers := range []int{1, 3} {
				got := base.Clone()
				got.SetParallelism(workers)
				got.ApplyDiagTable(d, qs)
				if diff := got.MaxDiff(want); diff != 0 {
					t.Errorf("w=%d runs=%d qubits=%v workers=%d: differs by %g", w, runs, qs, workers, diff)
				}
			}
		}
	}
}

func TestDiagTableValidation(t *testing.T) {
	d4 := []complex128{1, 1, 1, 1}
	cases := map[string]func(s *State){
		"no qubits":     func(s *State) { s.ApplyDiagTable([]complex128{1}, nil) },
		"too wide":      func(s *State) { s.ApplyDiagTable(make([]complex128, 16), []uint{0, 1, 2, 3}) },
		"table size":    func(s *State) { s.ApplyDiagTable(d4, []uint{0, 1, 2}) },
		"out of range":  func(s *State) { s.ApplyDiagTable(d4, []uint{1, 3}) },
		"not ascending": func(s *State) { s.ApplyDiagTable(d4, []uint{2, 1}) },
		"duplicate":     func(s *State) { s.ApplyDiagTable(d4, []uint{1, 1}) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			s := NewRandom(3, rng.New(1))
			before := s.Clone()
			mustPanic(t, name, func() { fn(s) })
			if s.MaxDiff(before) != 0 {
				t.Error("state modified before the panic")
			}
		})
	}
}

func TestWorkers(t *testing.T) {
	s := New(3)
	s.SetParallelism(1)
	if s.Workers() != 1 {
		t.Errorf("Workers() = %d after SetParallelism(1)", s.Workers())
	}
	s.SetParallelism(0)
	if s.Workers() < 1 {
		t.Errorf("Workers() = %d without a cap", s.Workers())
	}
}

// TestFieldAddDiagMatchesSequential holds the composed kernel to the two
// kernels it replaces, bit for bit: add, sub, addc and mul, each with the
// diagonal after it and before it, on tables of ApplyDiagN's width and
// beyond it, over one run of qubits and several, serial and in parallel
// chunks, through every dense body the host has.
func TestFieldAddDiagMatchesSequential(t *testing.T) {
	src := rng.New(47)
	kinds := []struct {
		name string
		is   func(FieldAdd) bool
	}{
		{"add", func(op FieldAdd) bool { return !op.Subtract && !op.HasCarryOut && !op.HasMul }},
		{"sub", func(op FieldAdd) bool { return op.Subtract && !op.HasMul }},
		{"addc", func(op FieldAdd) bool { return op.HasCarryOut }},
		{"mul", func(op FieldAdd) bool { return op.HasMul }},
	}
	for _, workers := range []int{1, 2} {
		const n = 15
		init := NewRandom(n, src)
		for _, kind := range kinds {
			op := randomFieldAdd(src, n)
			for !kind.is(op) {
				op = randomFieldAdd(src, n)
			}
			for _, w := range []uint{3, MaxMatrixNQubits + 2} {
				for _, runs := range []int{1, 2} {
					qubits := ascendingRuns(src, n, w, runs)
					d := randomPhases(src, w)
					for _, diagFirst := range []bool{false, true} {
						for body := hostBody; ; body-- {
							got, want := NewZero(n), NewZero(n)
							got.SetParallelism(workers)
							want.SetParallelism(workers)
							got.CopyFrom(init)
							want.CopyFrom(init)
							withDenseBody(body, func() {
								if diagFirst {
									want.ApplyDiagTable(d, qubits)
								}
								want.ApplyFieldAdd(op)
								if !diagFirst {
									want.ApplyDiagTable(d, qubits)
								}
								got.ApplyFieldAddDiag(op, d, qubits, diagFirst)
							})
							if i, ok := sameBits(got, want); !ok {
								t.Fatalf("%s %+v, diagonal on %v first=%v, %d workers, %s body: amplitude %d is %v, want %v",
									kind.name, op, qubits, diagFirst, workers, body, i, got.amp[i], want.amp[i])
							}
							if body == cpufeat.Go {
								break
							}
						}
					}
				}
			}
		}
	}
}

// fieldAddTab runs ApplyFieldAddDiag with the table d after the add, or
// ApplyFieldAdd when d is nil.
func (s *State) fieldAddTab(op FieldAdd, d []complex128, qubits []uint) {
	if d == nil {
		s.ApplyFieldAdd(op)
		return
	}
	s.ApplyFieldAddDiag(op, d, qubits, false)
}

// fieldScatter is fieldAdd with the tiled kernel left out: the scatter on
// every layout, the kernel the tiled one is timed and checked against.
func (s *State) fieldScatter(op FieldAdd, d []complex128, qubits []uint, diagFirst bool) {
	s.checkFieldAdd(op)
	p := fieldPass{out: s.scratchBuf(), amp: s.amp, op: op, diagFirst: diagFirst}
	if d != nil {
		s.checkDiagTable(d, qubits)
		p.d, p.runs = d, s.diagRuns(qubits)
	}
	s.parallelRange(s.Dim(), func(start, end uint64) { p.scatter(start, end) })
	s.amp, s.scratch = p.out, s.amp
}

// fieldKernel names the kernel fieldAdd runs op on at n qubits — the
// scatter, a rotation of whole rows or of tiles, or a pack keeping every
// row of the field or a narrower window of them — and the tile's log2
// width.
func fieldKernel(op FieldAdd, n uint) (string, uint) {
	p := fieldPass{op: op}
	switch {
	case !p.plan(n):
		return "scatter", 0
	case p.pack && p.window < op.Width:
		return "window", p.tile
	case p.pack:
		return "pack", p.tile
	case p.tile == op.BPos:
		return "rows", p.tile
	}
	return "rotate", p.tile
}

// TestFieldAddPlan pins which kernel takes which layout: each form of the
// tiled kernel, and the scatter on each layout its doc comment keeps it
// for.
func TestFieldAddPlan(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      uint
		op     FieldAdd
		kernel string
		tile   uint
	}{
		{"emulate-mix's adder", 20, FieldAdd{APos: 0, BPos: 9, Width: 9, CarryIn: 18}, "window", 6},
		{"its mirror", 20, FieldAdd{APos: 9, BPos: 0, Width: 9, CarryIn: 18}, "rows", 0},
		{"multiplier below", 20, FieldAdd{APos: 14, BPos: 8, Width: 6, CarryIn: 0, MulPos: 2, HasMul: true}, "pack", 6},
		{"carry-in at the tile's width", 20, FieldAdd{APos: 12, BPos: 9, Width: 3, CarryIn: 6}, "rotate", 6},
		{"carry-in under the tile's width", 20, FieldAdd{APos: 12, BPos: 9, Width: 3, CarryIn: 5}, "window", 6},
		{"narrow rotation, wide rows", 20, FieldAdd{APos: 2, BPos: 8, Width: 6, CarryIn: 18}, "window", 6},
		{"carry-out", 20, FieldAdd{APos: 0, BPos: 9, Width: 9, CarryIn: 18, CarryOut: 19, HasCarryOut: true}, "scatter", 0},
		{"rows of two amplitudes", 20, FieldAdd{APos: 0, BPos: 1, Width: 1, CarryIn: 2}, "scatter", 0},
		{"a wide target over a carry-in", 31, FieldAdd{APos: 16, BPos: 2, Width: 14, CarryIn: 0}, "window", 2},
		{"a wide product", 34, FieldAdd{APos: 0, BPos: 22, Width: 11, CarryIn: 33, MulPos: 11, HasMul: true}, "pack", 4},
		{"a wide target over a set shift", 31, FieldAdd{APos: 16, BPos: 2, Width: 14, CarryIn: 30}, "rows", 2},
		{"blocks of two amplitudes", 20, FieldAdd{APos: 1, BPos: 0, Width: 1, CarryIn: 2}, "scatter", 0},
		{"blocks of four amplitudes", 20, FieldAdd{APos: 2, BPos: 0, Width: 2, CarryIn: 4}, "rows", 0},
	} {
		if err := tc.op.Check(tc.n); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if kernel, tile := fieldKernel(tc.op, tc.n); kernel != tc.kernel || tile != tc.tile {
			t.Errorf("%s: %s with tile 2^%d, want %s with 2^%d", tc.name, kernel, tile, tc.kernel, tc.tile)
		}
	}
}

// checkFieldAdd holds ApplyFieldAdd, or ApplyFieldAddDiag with the table d
// on qubits before or after the add, to the reference: fieldAddReference
// through ApplyPermutation and ApplyDiagTable, bit for bit.
func checkFieldAdd(t *testing.T, init *State, op FieldAdd, d []complex128, qubits []uint, diagFirst bool, workers int) {
	t.Helper()
	got, want := init.Clone(), init.Clone()
	got.SetParallelism(workers)
	if d != nil && diagFirst {
		want.ApplyDiagTable(d, qubits)
	}
	want.ApplyPermutation(fieldAddReference(op))
	if d != nil && !diagFirst {
		want.ApplyDiagTable(d, qubits)
	}
	if d == nil {
		got.ApplyFieldAdd(op)
	} else {
		got.ApplyFieldAddDiag(op, d, qubits, diagFirst)
	}
	if i, ok := sameBits(got, want); !ok {
		kernel, tile := fieldKernel(op, init.n)
		t.Fatalf("n=%d %+v (%s, tile 2^%d), table %v on %v first=%v, %d workers: amplitude %d is %v, want %v",
			init.n, op, kernel, tile, d != nil, qubits, diagFirst, workers, i, got.amp[i], want.amp[i])
	}
}

// randomQubits returns w distinct ascending qubits below n.
func randomQubits(src *rng.Source, n, w uint) []uint {
	qs := make([]uint, 0, w)
	for _, q := range src.Perm(int(n))[:w] {
		qs = append(qs, uint(q))
	}
	slices.Sort(qs)
	return qs
}

// TestFieldAddKernelsMatchReference is the tiled kernel's property test:
// random add, sub, addc and mul layouts in every orientation, on registers
// from 5 to 16 qubits (rows shorter than, as long as and longer than a
// tile; fewer units than workers and more), with no table or one before or
// after the add, at one to four workers, then one layout of each form at
// 17 qubits with a 14-qubit table, against the reference bit for bit. It
// fails unless every kernel form was reached.
func TestFieldAddKernelsMatchReference(t *testing.T) {
	src := rng.New(53)
	reached := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		n := 5 + uint(src.Intn(8))
		if trial%20 == 0 {
			n = 14 + uint(src.Intn(3))
		}
		op := randomFieldAdd(src, n)
		kernel, _ := fieldKernel(op, n)
		reached[kernel]++
		init := NewRandom(n, src)
		var d []complex128
		var qubits []uint
		table := trial % 3
		if table > 0 {
			w := 1 + uint(src.Intn(int(min(n, 12))))
			qubits, d = randomQubits(src, n, w), randomPhases(src, w)
		}
		checkFieldAdd(t, init, op, d, qubits, table == 1, 1+trial%4)
	}
	// Random placements seldom cut a rotation inside the rows; these do,
	// beside one layout of each other form, each with every table and
	// worker count.
	for _, op := range []FieldAdd{
		{APos: 13, BPos: 10, Width: 3, CarryIn: 9},
		{APos: 9, BPos: 12, Width: 3, CarryIn: 15, Subtract: true},
		{APos: 12, BPos: 10, Width: 2, CarryIn: 14, MulPos: 8, HasMul: true},
		{APos: 0, BPos: 7, Width: 7, CarryIn: 14},
		{APos: 0, BPos: 8, Width: 8, CarryIn: 16},
		{APos: 0, BPos: 8, Width: 8, CarryIn: 16, Subtract: true},
		{APos: 5, BPos: 0, Width: 5, CarryIn: 15, MulPos: 10, HasMul: true},
		{APos: 0, BPos: 7, Width: 7, CarryIn: 14, CarryOut: 15, HasCarryOut: true},
	} {
		const n = 17
		kernel, _ := fieldKernel(op, n)
		reached[kernel]++
		init := NewRandom(n, src)
		qubits := []uint{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
		d := randomPhases(src, uint(len(qubits)))
		for workers := 1; workers <= 4; workers++ {
			checkFieldAdd(t, init, op, nil, nil, false, workers)
			checkFieldAdd(t, init, op, d, qubits, true, workers)
			checkFieldAdd(t, init, op, d, qubits, false, workers)
		}
	}
	for _, kernel := range []string{"scatter", "pack", "window", "rows", "rotate"} {
		if reached[kernel] == 0 {
			t.Errorf("no trial reached the %s kernel: %v", kernel, reached)
		}
	}
}

// FuzzFieldAdd draws the layout from the input — register size, width,
// the three fields' and the carry-in's positions (so A, M and the carry-in
// fall below and above B), add, sub, addc or mul, no table or one before
// or after the add, one to four workers — and holds the kernel fieldAdd
// picks to the reference bit for bit. Layouts Check rejects are skipped.
func FuzzFieldAdd(f *testing.F) {
	// n = 3 + nRaw%15, w = 1 + wRaw%(n/2); kind: 0 add, 1 sub, 2 addc, 3
	// mul, 4 mul-sub; table: 0 none, 1 first, 2 after; 1 + workers%4.
	seed := func(n, w, a, b, c, m, kind, table, workers uint8, s uint64) {
		f.Add(n-3, w-1, a, b, c, m, kind, table, workers-1, s)
	}
	seed(17, 8, 0, 8, 16, 0, 0, 2, 2, 1)  // emulate-mix's shape: a window of 64 of 256 rows
	seed(16, 7, 0, 7, 14, 0, 0, 1, 3, 2)  // a pack of every row
	seed(16, 7, 7, 0, 14, 0, 1, 1, 1, 3)  // its mirror: whole rows
	seed(15, 4, 4, 8, 12, 0, 3, 2, 4, 4)  // a product below the target
	seed(14, 3, 10, 4, 2, 0, 1, 1, 1, 5)  // a carry-in inside the tile: a window of two rows
	seed(16, 3, 13, 10, 9, 0, 0, 1, 3, 6) // a rotation inside the rows
	seed(16, 3, 0, 12, 15, 0, 0, 2, 2, 7) // rows longer than a tile
	seed(12, 4, 0, 4, 8, 0, 2, 2, 2, 8)   // addc: the scatter
	seed(6, 2, 0, 2, 4, 0, 1, 0, 4, 9)    // fewer units than workers
	f.Fuzz(func(t *testing.T, nRaw, wRaw, aRaw, bRaw, cRaw, mRaw, kind, table, workers uint8, seed uint64) {
		n := 3 + uint(nRaw)%15
		w := 1 + uint(wRaw)%(n/2)
		span := int(n - w + 1)
		op := FieldAdd{
			Width: w, APos: uint(aRaw) % uint(span), BPos: uint(bRaw) % uint(span),
			CarryIn: uint(cRaw) % n, MulPos: uint(mRaw) % uint(span),
		}
		switch kind % 5 {
		case 1:
			op.Subtract = true
		case 2:
			op.HasCarryOut, op.CarryOut = true, (op.CarryIn+1+uint(mRaw))%n
		case 3, 4:
			op.HasMul, op.Subtract = true, kind%5 == 4
		}
		if op.Check(n) != nil {
			return
		}
		src := rng.New(seed)
		init := NewRandom(n, src)
		var d []complex128
		var qubits []uint
		if table%3 > 0 {
			dw := 1 + uint(src.Intn(int(min(n, 12))))
			qubits, d = randomQubits(src, n, dw), randomPhases(src, dw)
		}
		checkFieldAdd(t, init, op, d, qubits, table%3 == 1, 1+int(workers)%4)
	})
}
