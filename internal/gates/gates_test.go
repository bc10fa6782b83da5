package gates

import (
	"math"
	"math/cmplx"
	"testing"
)

const eps = 1e-12

func TestStandardGatesUnitary(t *testing.T) {
	named := map[string]Matrix2{
		"I": MatI, "X": MatX, "Y": MatY, "Z": MatZ,
		"H": MatH, "S": MatS, "T": MatT,
	}
	for name, m := range named {
		if !m.IsUnitary(eps) {
			t.Errorf("%s is not unitary", name)
		}
	}
	for _, theta := range []float64{0, 0.1, math.Pi / 3, math.Pi, 5.1} {
		for _, g := range []Gate{Rx(0, theta), Ry(0, theta), Rz(0, theta), Phase(0, theta)} {
			if !g.Matrix.IsUnitary(eps) {
				t.Errorf("%s(%v) not unitary", g.Name, theta)
			}
		}
	}
}

func TestClassification(t *testing.T) {
	cases := []struct {
		m    Matrix2
		want Kind
	}{
		{MatI, Identity},
		{MatX, AntiDiagonal},
		{MatY, AntiDiagonal},
		{MatZ, Diagonal},
		{MatS, Diagonal},
		{MatT, Diagonal},
		{MatH, Dense},
		{Rz(0, 0.7).Matrix, Diagonal},
		{Rx(0, 0.7).Matrix, Dense},
	}
	for _, c := range cases {
		if got := c.m.Classify(); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.m, got, c.want)
		}
	}
}

func TestPauliAlgebra(t *testing.T) {
	// X^2 = Y^2 = Z^2 = I, XY = iZ, HXH = Z, S^2 = Z, T^2 = S.
	check := func(name string, got, want Matrix2) {
		t.Helper()
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > eps {
				t.Errorf("%s: entry %d: got %v want %v", name, i, got[i], want[i])
			}
		}
	}
	check("X^2", MatX.Mul(MatX), MatI)
	check("Y^2", MatY.Mul(MatY), MatI)
	check("Z^2", MatZ.Mul(MatZ), MatI)
	iZ := Matrix2{1i, 0, 0, -1i}
	check("XY", MatX.Mul(MatY), iZ)
	check("HXH", MatH.Mul(MatX).Mul(MatH), MatZ)
	check("S^2", MatS.Mul(MatS), MatZ)
	check("T^2", MatT.Mul(MatT), MatS)
}

func TestAdjointIsInverse(t *testing.T) {
	for _, g := range []Gate{H(0), S(0), T(0), Rx(0, 1.3), Ry(0, 0.4), Rz(0, 2.2), Phase(0, 0.9)} {
		p := g.Matrix.Mul(g.Matrix.Adjoint())
		if cmplx.Abs(p[0]-1) > eps || cmplx.Abs(p[1]) > eps ||
			cmplx.Abs(p[2]) > eps || cmplx.Abs(p[3]-1) > eps {
			t.Errorf("%s: M M† != I: %v", g.Name, p)
		}
	}
}

func TestRotationComposition(t *testing.T) {
	// Rz(a) Rz(b) = Rz(a+b).
	a, b := 0.7, 1.9
	got := Rz(0, a).Matrix.Mul(Rz(0, b).Matrix)
	want := Rz(0, a+b).Matrix
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > eps {
			t.Fatalf("Rz composition: %v vs %v", got, want)
		}
	}
}

func TestGateHelpers(t *testing.T) {
	g := CNOT(2, 5)
	if g.Target != 5 || len(g.Controls) != 1 || g.Controls[0] != 2 {
		t.Errorf("CNOT wiring wrong: %+v", g)
	}
	if g.MaxQubit() != 5 {
		t.Errorf("MaxQubit = %d", g.MaxQubit())
	}
	tof := Toffoli(1, 3, 0)
	if tof.MaxQubit() != 3 {
		t.Errorf("Toffoli MaxQubit = %d", tof.MaxQubit())
	}
	if !CR(0, 1, 0.5).IsDiagonalOnState() {
		t.Error("CR should be diagonal on state")
	}
	if CNOT(0, 1).IsDiagonalOnState() {
		t.Error("CNOT is not diagonal")
	}
	qs := tof.Qubits()
	if len(qs) != 3 || qs[0] != 0 {
		t.Errorf("Qubits() = %v", qs)
	}
}

func TestWithControlsDoesNotAlias(t *testing.T) {
	g := CNOT(1, 0)
	cg := g.WithControls(2, 3)
	if len(g.Controls) != 1 {
		t.Error("WithControls mutated the receiver")
	}
	if len(cg.Controls) != 3 {
		t.Errorf("controlled gate has %d controls", len(cg.Controls))
	}
	cg.Controls[0] = 9
	if g.Controls[0] != 1 {
		t.Error("control slice aliased")
	}
}

func TestDaggerOfControlled(t *testing.T) {
	g := CR(0, 1, 0.8)
	d := g.Dagger()
	p := g.Matrix.Mul(d.Matrix)
	if cmplx.Abs(p[0]-1) > eps || cmplx.Abs(p[3]-1) > eps {
		t.Error("dagger not inverse")
	}
	if len(d.Controls) != 1 || d.Controls[0] != 0 {
		t.Error("dagger lost controls")
	}
}
