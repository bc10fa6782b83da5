package core

import (
	"math"
	"testing"

	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// randomOnSubspace returns a normalised random state over n qubits whose
// amplitude is zero wherever any qubit in `zero` is 1 — the valid-input
// subspace where the circuit's ancillas are |0>.
func randomOnSubspace(src *rng.Source, n uint, zero []uint) *statevec.State {
	st := statevec.NewZero(n)
	var mask uint64
	for _, q := range zero {
		mask |= uint64(1) << q
	}
	amps := st.Amplitudes()
	for i := range amps {
		if uint64(i)&mask == 0 {
			amps[i] = src.Complex()
		}
	}
	st.Normalize()
	return st
}

// TestEmulatedMultiplyMatchesSimulatedCircuit is the Figure 1 correctness
// claim: the emulator's classical multiply permutation must produce the
// exact state the gate-level Toffoli network produces, on superposed input
// (the carry ancilla, which the emulator need not even represent, is |0>).
func TestEmulatedMultiplyMatchesSimulatedCircuit(t *testing.T) {
	src := rng.New(11)
	for _, m := range []uint{2, 3} {
		l := revlib.NewMultiplierLayout(m)
		n := l.NumQubits()
		circ := revlib.BuildMultiplier(l)

		st := randomOnSubspace(src, n, []uint{l.CarryAnc})
		simulated := st.Clone()
		circ.Run(simulated)

		emulated := st.Clone()
		em := Wrap(emulated)
		em.Multiply(0, m, 2*m, m)

		if d := emulated.MaxDiff(simulated); d > 1e-10 {
			t.Fatalf("m=%d: emulated multiply differs from simulation by %g", m, d)
		}
	}
}

// TestEmulatedDivideMatchesSimulatedCircuit is the Figure 2 analogue: the
// word-level division emulation must reproduce the restoring-divider
// circuit exactly on every basis state, including invalid ones (b = 0,
// dirty work registers) — they implement the same permutation.
func TestEmulatedDivideMatchesSimulatedCircuit(t *testing.T) {
	m := uint(2)
	l := revlib.NewDividerLayout(m)
	n := l.NumQubits()
	circ := revlib.BuildDivider(l)

	// Random superposition over the full logical space — including dirty
	// work bits in R and Q, which the word-level emulation models exactly.
	// Only the two adder ancillas (restored by construction) must be |0>.
	src := rng.New(13)
	st := randomOnSubspace(src, n, []uint{l.BZ, l.CarryAnc})
	simulated := st.Clone()
	circ.Run(simulated)

	emulated := st.Clone()
	em := Wrap(emulated)
	em.Divide(DivideLayout{M: m, RPos: 0, BPos: 2 * m, QPos: 3 * m})

	if d := emulated.MaxDiff(simulated); d > 1e-10 {
		t.Fatalf("emulated divide differs from simulated circuit by %g", d)
	}
}

func TestDivideValues(t *testing.T) {
	// End-to-end check on basis states: (a, b, 0) -> (a mod b, b, a/b).
	m := uint(3)
	for a := uint64(0); a < 8; a++ {
		for b := uint64(1); b < 8; b++ {
			em := New(4*m + 2)
			em.State().SetAmplitude(0, 0)
			em.State().SetAmplitude(a|b<<(2*m), 1)
			em.Divide(DivideLayout{M: m, RPos: 0, BPos: 2 * m, QPos: 3 * m})
			want := (a % b) | b<<(2*m) | (a/b)<<(3*m)
			got := em.State().Amplitude(want)
			if math.Abs(real(got)-1) > 1e-12 {
				t.Fatalf("div(%d,%d): amplitude not at expected index", a, b)
			}
		}
	}
}

func TestAddInto(t *testing.T) {
	src := rng.New(17)
	w := uint(3)
	em := Wrap(statevec.NewRandom(2*w, src))
	orig := em.State().Clone()
	em.AddInto(0, w, w)
	for i := uint64(0); i < orig.Dim(); i++ {
		a := i & 7
		b := (i >> w) & 7
		j := a | ((a+b)&7)<<w
		d := em.State().Amplitude(j) - orig.Amplitude(i)
		if math.Hypot(real(d), imag(d)) > 1e-12 {
			t.Fatalf("AddInto misplaced %d", i)
		}
	}
}

// TestEmulatedQFTMatchesCircuit is the Section 3.2 equivalence: FFT
// emulation must equal the gate-level QFT circuit on random states.
func TestEmulatedQFTMatchesCircuit(t *testing.T) {
	src := rng.New(19)
	for _, n := range []uint{1, 2, 3, 5, 8} {
		st := statevec.NewRandom(n, src)
		simulated := st.Clone()
		qft.Circuit(n).Run(simulated)

		emulated := st.Clone()
		Wrap(emulated).QFT()

		if d := emulated.MaxDiff(simulated); d > 1e-9 {
			t.Fatalf("n=%d: FFT emulation differs from QFT circuit by %g", n, d)
		}
	}
}

func TestQFTInverseRoundTrip(t *testing.T) {
	src := rng.New(23)
	st := statevec.NewRandom(8, src)
	orig := st.Clone()
	em := Wrap(st)
	em.QFT()
	em.InverseQFT()
	if d := st.MaxDiff(orig); d > 1e-10 {
		t.Fatalf("QFT round trip error %g", d)
	}
}

func TestQFTRangeSubRegister(t *testing.T) {
	// QFT on a field must match the circuit QFT applied to those qubits.
	src := rng.New(29)
	n := uint(6)
	pos, width := uint(2), uint(3)
	st := statevec.NewRandom(n, src)

	simulated := st.Clone()
	circ := qft.Circuit(width)
	// Shift the circuit onto qubits [pos, pos+width).
	for _, g := range circ.Gates {
		sg := g
		sg.Target += pos
		sg.Controls = nil
		for _, c := range g.Controls {
			sg.Controls = append(sg.Controls, c+pos)
		}
		simulated.ApplyGate(sg)
	}

	emulated := st.Clone()
	Wrap(emulated).QFTRange(pos, width)
	if d := emulated.MaxDiff(simulated); d > 1e-9 {
		t.Fatalf("sub-register QFT differs by %g", d)
	}
}

func TestApplyUnaryFunc(t *testing.T) {
	// |a>|c> -> |a>|c xor f(a)> with a non-invertible f must stay unitary.
	src := rng.New(31)
	st := statevec.NewRandom(6, src)
	em := Wrap(st)
	f := func(a uint64) uint64 { return (a * a) % 8 } // not injective mod 8
	norm0 := st.Norm()
	em.ApplyUnaryFunc(0, 3, 3, 3, f)
	if math.Abs(st.Norm()-norm0) > 1e-12 {
		t.Fatal("unary func oracle broke the norm (not a permutation?)")
	}
	// Applying twice must cancel (XOR oracle is an involution).
	orig := st.Clone()
	em.ApplyUnaryFunc(0, 3, 3, 3, f)
	em.ApplyUnaryFunc(0, 3, 3, 3, f)
	if d := st.MaxDiff(orig); d > 1e-12 {
		t.Fatal("XOR oracle not an involution")
	}
}

func TestApplyPhaseOracle(t *testing.T) {
	st := statevec.New(3)
	em := Wrap(st)
	em.ApplyGate(gates.H(0))
	em.ApplyGate(gates.H(1))
	em.ApplyGate(gates.H(2))
	em.ApplyPhaseOracle(func(x uint64) complex128 {
		if x == 5 {
			return -1
		}
		return 1
	})
	if real(st.Amplitude(5)) > 0 {
		t.Fatal("phase oracle did not flip the marked state")
	}
	if math.Abs(st.Norm()-1) > 1e-12 {
		t.Fatal("phase oracle broke normalisation")
	}
}

func TestExpectationShortcut(t *testing.T) {
	src := rng.New(37)
	st := statevec.NewRandom(5, src)
	em := Wrap(st)
	obs := func(i uint64) float64 { return float64(i) }
	exact := em.Expectation(obs)
	var manual float64
	for i, p := range em.Probabilities() {
		manual += p * float64(i)
	}
	if math.Abs(exact-manual) > 1e-10 {
		t.Fatalf("expectation shortcut mismatch: %v vs %v", exact, manual)
	}
}

func TestCheckFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range field accepted")
		}
	}()
	New(4).Multiply(0, 2, 3, 2) // c field [3,5) exceeds 4 qubits
}
