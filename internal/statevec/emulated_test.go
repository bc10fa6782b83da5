package statevec

import (
	"math"
	"testing"

	"repro/internal/bitops"
	"repro/internal/rng"
)

// fieldAddReference is op's map written out bit by bit, the oracle the
// inline kernel is checked against through ApplyPermutation.
func fieldAddReference(op FieldAdd) func(uint64) uint64 {
	return func(i uint64) uint64 {
		a := bitops.ExtractBits(i, op.APos, op.Width) + bitops.Bit(i, op.CarryIn)
		if op.HasMul {
			a *= bitops.ExtractBits(i, op.MulPos, op.Width)
		}
		b := bitops.ExtractBits(i, op.BPos, op.Width)
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
