package ising

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/linalg"
	"repro/internal/qpe"
)

func TestGateCountMatchesTable2(t *testing.T) {
	// The paper's Table 2 lists G for n = 8..14: 29, 33, 37, 41, 45, 49, 53.
	want := map[uint]int{8: 29, 9: 33, 10: 37, 11: 41, 12: 45, 13: 49, 14: 53}
	for n, g := range want {
		if GateCount(n) != g {
			t.Errorf("GateCount(%d) = %d, want %d", n, GateCount(n), g)
		}
		if got := TrotterStep(n, DefaultParams()).Len(); got != g {
			t.Errorf("TrotterStep(%d) has %d gates, want %d", n, got, g)
		}
	}
}

func TestTrotterStepIsUnitary(t *testing.T) {
	u := qpe.DenseUnitary(TrotterStep(4, DefaultParams()))
	if !u.IsUnitary(1e-9) {
		t.Error("Trotter step not unitary")
	}
}

func TestTrotterMatchesExactEvolutionSmallDt(t *testing.T) {
	// For small dt the Trotter step must approach exp(-i H dt): compare
	// eigenphases against the exact TFIM spectrum for n=2, where
	// H = -J Z0 Z1 - h(X0 + X1) diagonalises analytically.
	p := Params{J: 0.8, H: 0.5, Dt: 0.01}
	u := qpe.DenseUnitary(TrotterStep(2, p))
	vals, err := linalg.Eigenvalues(u)
	if err != nil {
		t.Fatal(err)
	}
	// Exact eigenvalues of H for n=2: {-J, +J, +-sqrt(J^2+4h^2)}.
	s := math.Sqrt(p.J*p.J + 4*p.H*p.H)
	exact := []float64{-p.J, p.J, s, -s}
	// Collect eigenphase angles theta with lambda = e^{-i E dt}.
	var got []float64
	for _, v := range vals {
		got = append(got, -cmplx.Phase(v)/p.Dt)
	}
	// Each exact energy must be near some measured one (O(dt^2) Trotter
	// error => O(dt) in E after division, be generous).
	for _, e := range exact {
		best := math.Inf(1)
		for _, g := range got {
			if d := math.Abs(g - e); d < best {
				best = d
			}
		}
		if best > 0.05 {
			t.Errorf("energy %v not found (best diff %v); spectrum %v", e, best, got)
		}
	}
}

func TestEvolutionComposes(t *testing.T) {
	// Evolution(steps) must equal applying the step circuit repeatedly.
	u1 := qpe.DenseUnitary(TrotterStep(3, DefaultParams()))
	u3 := qpe.DenseUnitary(Evolution(3, DefaultParams(), 3))
	want := u1.Mul(u1).Mul(u1)
	if d := u3.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("3-step evolution differs from U^3 by %g", d)
	}
}
