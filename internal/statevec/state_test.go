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

// TestScaleAndMass: Scale multiplies every amplitude by v, so the mass
// scales by |v|^2 — a phase leaves it alone — and Mass is Norm squared.
func TestScaleAndMass(t *testing.T) {
	for _, ws := range workerSettings {
		t.Run(ws.name, func(t *testing.T) {
			s := NewRandom(engineN, rng.New(915))
			s.SetParallelism(ws.workers)
			orig := s.Clone()
			v := complex(0.3, -1.2)
			s.Scale(v)
			for i := uint64(0); i < s.Dim(); i++ {
				if s.Amplitude(i) != orig.Amplitude(i)*v {
					t.Fatalf("amplitude %d: %v, want %v", i, s.Amplitude(i), orig.Amplitude(i)*v)
				}
			}
			if got, want := s.Mass(), real(v)*real(v)+imag(v)*imag(v); math.Abs(got-want) > 1e-12 {
				t.Errorf("mass after scaling = %v, want %v", got, want)
			}
			if n := s.Norm(); math.Abs(s.Mass()-n*n) > 1e-12 {
				t.Errorf("Mass %v is not Norm^2 = %v", s.Mass(), n*n)
			}
			s.Scale(cmplx.Exp(complex(0, 0.9)) / v)
			if math.Abs(s.Mass()-1) > 1e-12 {
				t.Errorf("undoing the scale up to a phase left mass %v, want 1", s.Mass())
			}
		})
	}
}

// TestNormalize: Normalize brings any nonzero vector to unit norm without
// changing its direction, and refuses the zero vector.
func TestNormalize(t *testing.T) {
	s := NewRandom(5, rng.New(916))
	want := s.Clone()
	s.Scale(complex(-3.5, 2))
	s.Normalize()
	if math.Abs(s.Norm()-1) > eps {
		t.Errorf("norm after Normalize = %v", s.Norm())
	}
	phase := s.Amplitude(0) / want.Amplitude(0)
	want.Scale(phase)
	if d := s.MaxDiff(want); d > eps {
		t.Errorf("Normalize changed the direction by %g", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("normalising the zero vector did not panic")
		}
	}()
	NewZero(3).Normalize()
}

// TestCopyFrom: CopyFrom overwrites the amplitudes in place and refuses a
// register of another width.
func TestCopyFrom(t *testing.T) {
	src := rng.New(917)
	dst, other := NewRandom(4, src), NewRandom(4, src)
	before := &dst.Amplitudes()[0]
	dst.CopyFrom(other)
	if d := dst.MaxDiff(other); d != 0 {
		t.Errorf("CopyFrom left a difference of %g", d)
	}
	if &dst.Amplitudes()[0] != before {
		t.Error("CopyFrom replaced the backing array")
	}
	defer func() {
		if recover() == nil {
			t.Error("CopyFrom across widths did not panic")
		}
	}()
	dst.CopyFrom(New(5))
}

// TestAdoptAmplitudes: the adopted slice becomes the state, the retired
// one is handed back unchanged, and a slice of the wrong length is
// refused.
func TestAdoptAmplitudes(t *testing.T) {
	s := NewRandom(3, rng.New(918))
	orig := s.Clone()
	buf := make([]complex128, 8)
	buf[6] = 1
	old := s.AdoptAmplitudes(buf)
	if &s.Amplitudes()[0] != &buf[0] {
		t.Fatal("AdoptAmplitudes did not install the given slice")
	}
	if s.MaxDiff(NewBasis(3, 6)) != 0 {
		t.Errorf("adopted state is %v, want |110>", s.Amplitudes())
	}
	back, err := FromAmplitudes(old)
	if err != nil {
		t.Fatal(err)
	}
	if back.MaxDiff(orig) != 0 {
		t.Error("retired slice does not hold the previous amplitudes")
	}
	defer func() {
		if recover() == nil {
			t.Error("adopting a slice of the wrong length did not panic")
		}
	}()
	s.AdoptAmplitudes(make([]complex128, 4))
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
