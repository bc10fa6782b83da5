package statevec

import (
	"math/cmplx"
	"testing"

	"repro/internal/gates"
	"repro/internal/rng"
)

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

// TestKernelValidation pins the validation contract of the single-qubit
// kernels: out-of-range targets, out-of-range controls and control==target
// all panic before any amplitude is touched. ApplyControlledDiag used to
// skip every check (an out-of-range target crashed with a raw index panic,
// an out-of-range control made the gate a silent no-op because its mask
// bit could never match); it now shares ApplyControlledMatrix2's contract.
func TestKernelValidation(t *testing.T) {
	d0, d1 := complex(1, 0), complex(0, 1)
	m := gates.MatH
	cases := map[string]func(s *State){
		"ApplyControlledMatrix2/no-controls/target-oob":   func(s *State) { s.ApplyControlledMatrix2(m, 3, nil) },
		"ApplyControlledX/no-controls/target-oob":         func(s *State) { s.ApplyControlledX(3, nil) },
		"ApplyHadamard/target-oob":                        func(s *State) { s.ApplyHadamard(3) },
		"ApplyControlledDiag/no-controls/target-oob":      func(s *State) { s.ApplyControlledDiag(d0, d1, 3, nil) },
		"ApplyControlledDiag/no-controls/target-oob-noop": func(s *State) { s.ApplyControlledDiag(1, 1, 3, nil) },

		"ApplyControlledMatrix2/target-oob":        func(s *State) { s.ApplyControlledMatrix2(m, 3, []uint{0}) },
		"ApplyControlledMatrix2/control-oob":       func(s *State) { s.ApplyControlledMatrix2(m, 0, []uint{3}) },
		"ApplyControlledMatrix2/control-eq-target": func(s *State) { s.ApplyControlledMatrix2(m, 1, []uint{1}) },

		"ApplyControlledDiag/target-oob":        func(s *State) { s.ApplyControlledDiag(d0, d1, 3, []uint{0}) },
		"ApplyControlledDiag/control-oob":       func(s *State) { s.ApplyControlledDiag(d0, d1, 0, []uint{3}) },
		"ApplyControlledDiag/control-eq-target": func(s *State) { s.ApplyControlledDiag(d0, d1, 1, []uint{1}) },
		// Validation must fire even when the diagonal is the identity and
		// the kernel would otherwise exit without sweeping.
		"ApplyControlledDiag/target-oob-noop": func(s *State) { s.ApplyControlledDiag(1, 1, 3, []uint{0}) },

		"ApplyControlledX/target-oob":        func(s *State) { s.ApplyControlledX(3, []uint{0}) },
		"ApplyControlledX/control-oob":       func(s *State) { s.ApplyControlledX(0, []uint{3}) },
		"ApplyControlledX/control-eq-target": func(s *State) { s.ApplyControlledX(1, []uint{1}) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			s := NewRandom(3, rng.New(1))
			before := s.Clone()
			mustPanic(t, name, func() { fn(s) })
			if s.MaxDiff(before) != 0 {
				t.Errorf("%s modified the state before panicking", name)
			}
		})
	}
}

// TestControlledDiagOutOfRangeControlNoLongerNoOp is the regression test
// for the silent-no-op half of the ApplyControlledDiag bug: before the
// fix, a control index >= n produced a mask bit that no amplitude index
// can set, so the gate silently did nothing instead of failing loudly.
func TestControlledDiagOutOfRangeControlNoLongerNoOp(t *testing.T) {
	s := NewRandom(3, rng.New(2))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range control must panic, not silently no-op")
		}
	}()
	s.ApplyControlledDiag(1, complex(0, 1), 0, []uint{7})
}

// TestControlledKernelsStillCorrect re-checks a CZ and a Toffoli through
// the now-validating kernels against first principles.
func TestControlledKernelsStillCorrect(t *testing.T) {
	src := rng.New(3)
	s := NewRandom(3, src)
	orig := s.Clone()
	// CZ on (0,1): amplitude picks up -1 iff bits 0 and 1 are both set.
	s.ApplyControlledDiag(1, -1, 1, []uint{0})
	for i := uint64(0); i < s.Dim(); i++ {
		want := orig.Amplitude(i)
		if i&0b011 == 0b011 {
			want = -want
		}
		if cmplx.Abs(s.Amplitude(i)-want) > eps {
			t.Fatalf("CZ wrong at %d", i)
		}
	}
	// Toffoli via ApplyControlledX matches the truth table.
	s2 := NewRandom(3, src)
	orig2 := s2.Clone()
	s2.ApplyControlledX(2, []uint{0, 1})
	for i := uint64(0); i < s2.Dim(); i++ {
		j := i
		if i&0b011 == 0b011 {
			j = i ^ 0b100
		}
		if cmplx.Abs(s2.Amplitude(j)-orig2.Amplitude(i)) > eps {
			t.Fatalf("CCX wrong at %d", i)
		}
	}
}
