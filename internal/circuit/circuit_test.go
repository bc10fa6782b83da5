package circuit

import (
	"math"
	"testing"

	"repro/internal/gates"
	"repro/internal/rng"
	"repro/internal/statevec"
)

const eps = 1e-12

func randomCircuit(src *rng.Source, n uint, count int) *Circuit {
	c := New(n)
	for i := 0; i < count; i++ {
		q := uint(src.Intn(int(n)))
		switch src.Intn(5) {
		case 0:
			c.Append(gates.H(q))
		case 1:
			c.Append(gates.T(q))
		case 2:
			c.Append(gates.Rx(q, src.Float64()*3))
		case 3:
			o := uint(src.Intn(int(n)))
			if o != q {
				c.Append(gates.CNOT(o, q))
			} else {
				c.Append(gates.X(q))
			}
		default:
			o := uint(src.Intn(int(n)))
			if o != q {
				c.Append(gates.CR(o, q, src.Float64()*2))
			} else {
				c.Append(gates.S(q))
			}
		}
	}
	return c
}

func TestAppendValidatesBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range gate accepted")
		}
	}()
	New(2).Append(gates.H(2))
}

func TestDaggerInverts(t *testing.T) {
	src := rng.New(17)
	for trial := 0; trial < 10; trial++ {
		n := uint(3 + src.Intn(3))
		c := randomCircuit(src, n, 40)
		s := statevec.NewRandom(n, src)
		orig := s.Clone()
		c.Run(s)
		c.Dagger().Run(s)
		if s.MaxDiff(orig) > 1e-10 {
			t.Fatalf("C† C != I (diff %g)", s.MaxDiff(orig))
		}
	}
}

func TestControlledCircuit(t *testing.T) {
	// A controlled circuit must act as identity when the control is 0 and
	// as the original circuit when the control is 1.
	src := rng.New(21)
	n := uint(4)
	c := randomCircuit(src, n, 25)
	cc := c.Controlled(n) // control on an extra qubit

	// Control = 0.
	s0 := statevec.NewRandom(n, src)
	joint0 := statevec.NewZero(n + 1)
	copy(joint0.Amplitudes()[:s0.Dim()], s0.Amplitudes())
	wide := New(n + 1)
	wide.Gates = cc.Gates
	wide.NumQubits = n + 1
	wide.Run(joint0)
	for i := uint64(0); i < s0.Dim(); i++ {
		if d := joint0.Amplitude(i) - s0.Amplitude(i); real(d)*real(d)+imag(d)*imag(d) > eps {
			t.Fatal("controlled circuit acted despite control=0")
		}
	}

	// Control = 1.
	s1 := statevec.NewRandom(n, src)
	joint1 := statevec.NewZero(n + 1)
	base := uint64(1) << n
	copy(joint1.Amplitudes()[base:], s1.Amplitudes())
	wide.Run(joint1)
	want := s1.Clone()
	c.Run(want)
	for i := uint64(0); i < s1.Dim(); i++ {
		d := joint1.Amplitude(base|i) - want.Amplitude(i)
		if real(d)*real(d)+imag(d)*imag(d) > eps {
			t.Fatal("controlled circuit wrong with control=1")
		}
	}
}

func TestDepth(t *testing.T) {
	c := New(4)
	// Two disjoint gates: depth 1.
	c.Append(gates.H(0), gates.H(1))
	if c.Depth() != 1 {
		t.Errorf("disjoint depth = %d", c.Depth())
	}
	// A CNOT over both: depth 2.
	c.Append(gates.CNOT(0, 1))
	if c.Depth() != 2 {
		t.Errorf("depth = %d", c.Depth())
	}
	// Gate on untouched qubits stays at depth 1 level, total unchanged.
	c.Append(gates.H(2))
	if c.Depth() != 2 {
		t.Errorf("depth = %d", c.Depth())
	}
}

func TestToffoliDecomposition(t *testing.T) {
	// The 15-gate Clifford+T network must equal the Toffoli on every basis
	// state (up to global phase; here exactly).
	for in := uint64(0); in < 8; in++ {
		want := statevec.NewBasis(3, in)
		want.ApplyGate(gates.Toffoli(0, 1, 2))
		got := statevec.NewBasis(3, in)
		for _, g := range DecomposeToffoli(0, 1, 2) {
			got.ApplyGate(g)
		}
		if got.MaxDiff(want) > 1e-10 {
			t.Fatalf("decomposition wrong on |%03b> (diff %g)", in, got.MaxDiff(want))
		}
	}
}

func TestLowerPreservesAction(t *testing.T) {
	src := rng.New(31)
	// Random circuit with some multiply-controlled gates.
	n := uint(5)
	c := New(n)
	c.Append(
		gates.Toffoli(0, 1, 2),
		gates.H(3),
		gates.X(4).WithControls(0, 1, 2),
		gates.Phase(1, 0.7).WithControls(2, 3),
		gates.CNOT(2, 0),
		gates.Z(0).WithControls(1, 2, 3, 4),
	)
	for _, maxC := range []int{1, 2} {
		low := c.Lower(maxC)
		for _, g := range low.Gates {
			if len(g.Controls) > maxC {
				t.Fatalf("Lower(%d) left a gate with %d controls", maxC, len(g.Controls))
			}
		}
		s := statevec.NewRandom(n, src)
		want := s.Clone()
		c.Run(want)
		got := s.Clone()
		low.Run(got)
		if d := got.MaxDiff(want); d > 1e-9 {
			t.Fatalf("Lower(%d) changed the action (diff %g)", maxC, d)
		}
	}
}

func TestSqrtMatrix(t *testing.T) {
	for _, m := range []gates.Matrix2{gates.MatX, gates.MatZ, gates.MatH, gates.MatS,
		gates.Ry(0, 1.2).Matrix} {
		v := sqrtMatrix2(m)
		p := v.Mul(v)
		for i := range p {
			d := p[i] - m[i]
			if math.Hypot(real(d), imag(d)) > 1e-10 {
				t.Fatalf("sqrt(%v)^2 = %v", m, p)
			}
		}
	}
}

func TestExtendAndLen(t *testing.T) {
	a := New(2)
	a.Append(gates.H(0))
	b := New(2)
	b.Append(gates.X(1), gates.CNOT(0, 1))
	a.Extend(b)
	if a.Len() != 3 {
		t.Errorf("Len = %d", a.Len())
	}
}

func TestRegionAnnotateInvariants(t *testing.T) {
	c := New(3)
	for i := 0; i < 6; i++ {
		c.Append(gates.H(0))
	}
	c.Annotate(Region{Name: "inner", Lo: 1, Hi: 3})
	// A containing region absorbs the inner one.
	c.Annotate(Region{Name: "outer", Args: []uint64{7}, Lo: 0, Hi: 4})
	if len(c.Regions) != 1 || c.Regions[0].Name != "outer" {
		t.Fatalf("containment did not absorb: %+v", c.Regions)
	}
	// Disjoint regions coexist, sorted by Lo.
	c.Annotate(Region{Name: "tail", Lo: 4, Hi: 6})
	if len(c.Regions) != 2 || c.Regions[0].Name != "outer" || c.Regions[1].Name != "tail" {
		t.Fatalf("disjoint annotation wrong: %+v", c.Regions)
	}
	// Partial overlap panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("partial overlap did not panic")
			}
		}()
		c.Annotate(Region{Name: "overlap", Lo: 3, Hi: 5})
	}()
	// Out-of-range panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range region did not panic")
			}
		}()
		c.Annotate(Region{Name: "oob", Lo: 5, Hi: 9})
	}()
}

func TestRegionExtendOffsetsAndDaggerMaps(t *testing.T) {
	a := New(2)
	a.Append(gates.H(0), gates.CNOT(0, 1))
	a.Annotate(Region{Name: "qft", Args: []uint64{0, 2}, Lo: 0, Hi: 2})
	b := New(2)
	b.Append(gates.X(1))
	b.Extend(a)
	if len(b.Regions) != 1 || b.Regions[0].Lo != 1 || b.Regions[0].Hi != 3 {
		t.Fatalf("Extend did not offset the region: %+v", b.Regions)
	}
	inv := b.Dagger()
	if len(inv.Regions) != 1 || inv.Regions[0].Name != "iqft" ||
		inv.Regions[0].Lo != 0 || inv.Regions[0].Hi != 2 {
		t.Fatalf("Dagger did not remap the region: %+v", inv.Regions)
	}
	// Unknown names are dropped by Dagger; Controlled drops everything.
	b.Regions[0].Name = "mystery"
	if got := b.Dagger().Regions; len(got) != 0 {
		t.Fatalf("unknown region survived Dagger: %+v", got)
	}
	if got := a.Controlled(1).Regions; len(got) != 0 {
		t.Fatalf("region survived Controlled: %+v", got)
	}
}
