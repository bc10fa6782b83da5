package statevec

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/bitops"
	"repro/internal/gates"
	"repro/internal/rng"
)

const eps = 1e-12

// naiveApply applies a (controlled) single-qubit gate by explicitly
// constructing the full 2^n x 2^n matrix action per amplitude — the
// Kronecker-product reference of the paper's Section 2 (Eq. 3).
func naiveApply(s *State, g gates.Gate) *State {
	n := s.NumQubits()
	dim := s.Dim()
	out := NewZero(n)
	cmask := bitops.ControlMask(g.Controls)
	tbit := uint64(1) << g.Target
	for col := uint64(0); col < dim; col++ {
		a := s.Amplitude(col)
		if a == 0 {
			continue
		}
		if col&cmask != cmask {
			out.amp[col] += a
			continue
		}
		if col&tbit == 0 {
			out.amp[col] += g.Matrix[0] * a
			out.amp[col|tbit] += g.Matrix[2] * a
		} else {
			out.amp[col&^tbit] += g.Matrix[1] * a
			out.amp[col] += g.Matrix[3] * a
		}
	}
	return out
}

func randomGates(src *rng.Source, n uint, count int) []gates.Gate {
	mk := []func(q uint) gates.Gate{
		gates.X, gates.Y, gates.Z, gates.H, gates.S, gates.T,
		func(q uint) gates.Gate { return gates.Rx(q, 1.1) },
		func(q uint) gates.Gate { return gates.Rz(q, 0.63) },
		func(q uint) gates.Gate { return gates.Phase(q, 2.1) },
	}
	var gs []gates.Gate
	for i := 0; i < count; i++ {
		q := uint(src.Intn(int(n)))
		g := mk[src.Intn(len(mk))](q)
		// Attach 0-2 random distinct controls.
		nc := src.Intn(3)
		used := map[uint]bool{q: true}
		for len(g.Controls) < nc && len(used) < int(n) {
			c := uint(src.Intn(int(n)))
			if !used[c] {
				used[c] = true
				g.Controls = append(g.Controls, c)
			}
		}
		gs = append(gs, g)
	}
	return gs
}

func TestNewStates(t *testing.T) {
	s := New(3)
	if s.Dim() != 8 || s.Amplitude(0) != 1 {
		t.Fatal("New(3) wrong")
	}
	if math.Abs(s.Norm()-1) > eps {
		t.Fatal("initial norm != 1")
	}
	b := NewBasis(3, 5)
	if b.Amplitude(5) != 1 || b.Amplitude(0) != 0 {
		t.Fatal("NewBasis wrong")
	}
}

func TestFromAmplitudes(t *testing.T) {
	if _, err := FromAmplitudes(make([]complex128, 3)); err == nil {
		t.Error("non-power-of-two accepted")
	}
	st, err := FromAmplitudes(make([]complex128, 8))
	if err != nil {
		t.Fatal(err)
	}
	if st.NumQubits() != 3 {
		t.Errorf("NumQubits = %d", st.NumQubits())
	}
}

func TestKernelsMatchNaive(t *testing.T) {
	src := rng.New(101)
	for trial := 0; trial < 30; trial++ {
		n := uint(2 + src.Intn(5))
		s := NewRandom(n, src)
		for _, g := range randomGates(src, n, 12) {
			want := naiveApply(s, g)
			got := s.Clone()
			got.ApplyGate(g)
			if got.MaxDiff(want) > eps {
				t.Fatalf("specialised kernel differs from naive for %v (n=%d): %g",
					g, n, got.MaxDiff(want))
			}
			gotGeneric := s.Clone()
			gotGeneric.ApplyGateGeneric(g)
			if gotGeneric.MaxDiff(want) > eps {
				t.Fatalf("generic kernel differs from naive for %v (n=%d)", g, n)
			}
			s = got
		}
	}
}

func TestNormPreservation(t *testing.T) {
	src := rng.New(7)
	s := NewRandom(8, src)
	for _, g := range randomGates(src, 8, 200) {
		s.ApplyGate(g)
	}
	if d := math.Abs(s.Norm() - 1); d > 1e-10 {
		t.Errorf("norm drifted by %g after 200 gates", d)
	}
}

func TestApplyXBasis(t *testing.T) {
	s := New(3) // |000>
	s.ApplyX(1)
	if s.Amplitude(0b010) != 1 {
		t.Fatal("X(1)|000> != |010>")
	}
	s.ApplyX(1)
	if s.Amplitude(0) != 1 {
		t.Fatal("X self-inverse failed")
	}
}

func TestHadamardTwiceIsIdentity(t *testing.T) {
	src := rng.New(5)
	s := NewRandom(6, src)
	orig := s.Clone()
	s.ApplyHadamard(3)
	s.ApplyHadamard(3)
	if s.MaxDiff(orig) > eps {
		t.Error("H^2 != I")
	}
}

func TestBellState(t *testing.T) {
	s := New(2)
	s.ApplyGate(gates.H(0))
	s.ApplyGate(gates.CNOT(0, 1))
	want := 1 / math.Sqrt2
	if cmplx.Abs(s.Amplitude(0)-complex(want, 0)) > eps ||
		cmplx.Abs(s.Amplitude(3)-complex(want, 0)) > eps ||
		cmplx.Abs(s.Amplitude(1)) > eps || cmplx.Abs(s.Amplitude(2)) > eps {
		t.Fatalf("Bell state wrong: %v", s.Amplitudes())
	}
}

func TestToffoliTruthTable(t *testing.T) {
	// Toffoli flips the target iff both controls are 1, on every basis state.
	for in := uint64(0); in < 8; in++ {
		s := NewBasis(3, in)
		s.ApplyGate(gates.Toffoli(0, 1, 2))
		want := in
		if in&0b011 == 0b011 {
			want = in ^ 0b100
		}
		if cmplx.Abs(s.Amplitude(want)-1) > eps {
			t.Errorf("Toffoli on |%03b>: expected |%03b>", in, want)
		}
	}
}

func TestApplyPermutation(t *testing.T) {
	src := rng.New(33)
	s := NewRandom(4, src)
	orig := s.Clone()
	// Cyclic shift by 3 is a bijection.
	s.ApplyPermutation(func(i uint64) uint64 { return (i + 3) % 16 })
	for i := uint64(0); i < 16; i++ {
		if cmplx.Abs(s.Amplitude((i+3)%16)-orig.Amplitude(i)) > eps {
			t.Fatalf("permutation misplaced amplitude %d", i)
		}
	}
	s.ApplyPermutation(func(i uint64) uint64 { return (i + 13) % 16 })
	if s.MaxDiff(orig) > eps {
		t.Error("inverse permutation did not restore the state")
	}
}

func TestInnerAndFidelity(t *testing.T) {
	s := New(2)
	o := NewBasis(2, 1)
	if cmplx.Abs(s.Inner(o)) > eps {
		t.Error("orthogonal basis states have nonzero inner product")
	}
	if math.Abs(s.Fidelity(s.Clone())-1) > eps {
		t.Error("self fidelity != 1")
	}
}
