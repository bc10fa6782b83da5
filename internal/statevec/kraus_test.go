package statevec

import (
	"math"
	"testing"

	"repro/internal/gates"
	"repro/internal/rng"
)

// projector returns the Kraus operator |b><b| of a projective measurement
// of one qubit onto outcome b.
func projector(b uint64) gates.Matrix2 {
	if b == 0 {
		return gates.Matrix2{1, 0, 0, 0}
	}
	return gates.Matrix2{0, 0, 0, 1}
}

// workerSettings names the two paths every fused kernel-plus-reduction
// has: the closure-free serial loop and the pooled parallel reduce.
var workerSettings = []struct {
	name    string
	workers int
}{{"serial", 1}, {"pooled", 4}}

// TestApplyKraus1ReturnsPostMass: a non-unitary 2x2 operator must leave
// the state ApplyMatrix2 leaves, and the mass returned from the same sweep
// must be the mass of that state.
func TestApplyKraus1ReturnsPostMass(t *testing.T) {
	for _, ws := range workerSettings {
		t.Run(ws.name, func(t *testing.T) {
			src := rng.New(910)
			for trial := 0; trial < 4; trial++ {
				s := NewRandom(engineN, src)
				s.SetParallelism(ws.workers)
				k := gates.Matrix2{src.Complex(), src.Complex(), src.Complex(), src.Complex()}
				q := uint(src.Intn(engineN))
				want := s.Clone()
				want.ApplyMatrix2(k, q)
				mass := s.ApplyKraus1(k, q)
				if d := s.MaxDiff(want); d > eps {
					t.Fatalf("trial %d q=%d: Kraus state differs from ApplyMatrix2 by %g", trial, q, d)
				}
				if wm := want.Mass(); math.Abs(mass-wm) > 1e-12*wm {
					t.Fatalf("trial %d q=%d: returned mass %v, state holds %v", trial, q, mass, wm)
				}
			}
		})
	}
}

// TestKrausProjectionCollapses: a projector, then RenormalizeMass with the
// returned mass, is a projective measurement's collapse. The returned mass
// is the outcome's branch mass, and the state matches the textbook
// three-pass reference (zero the other branch, re-norm, rescale).
func TestKrausProjectionCollapses(t *testing.T) {
	bell := New(2)
	bell.ApplyGate(gates.H(0))
	bell.ApplyGate(gates.CNOT(0, 1))
	if mass := bell.ApplyKraus1(projector(1), 0); math.Abs(mass-0.5) > eps {
		t.Fatalf("Bell branch q0=1 has mass %v, want 0.5", mass)
	} else {
		bell.RenormalizeMass(mass)
	}
	if d := bell.MaxDiff(NewBasis(2, 3)); d > eps {
		t.Fatalf("Bell state collapsed on q0=1 is %v, want |11>", bell.Amplitudes())
	}

	for _, ws := range workerSettings {
		t.Run(ws.name, func(t *testing.T) {
			src := rng.New(303)
			for trial := 0; trial < 5; trial++ {
				s := NewRandom(engineN, src)
				s.SetParallelism(ws.workers)
				q := uint(src.Intn(engineN))
				b := uint64(src.Intn(2))
				branch := s.BranchMass(q, b)
				ref := s.Clone()

				mass := s.ApplyKraus1(projector(b), q)
				if math.Abs(mass-branch) > 1e-12 {
					t.Fatalf("trial %d: projector mass %v, branch mass %v", trial, mass, branch)
				}
				s.RenormalizeMass(mass)

				stride := uint64(1) << q
				amps := ref.Amplitudes()
				for i := range amps {
					if (uint64(i)&stride != 0) != (b == 1) {
						amps[i] = 0
					}
				}
				ref.Normalize()
				if d := s.MaxDiff(ref); d > eps {
					t.Fatalf("trial %d: collapse differs from three-pass reference by %g", trial, d)
				}
				if d := math.Abs(s.Norm() - 1); d > eps {
					t.Fatalf("trial %d: collapse broke normalisation: %g", trial, d)
				}
			}
		})
	}
}

// TestRenormalizeMassPanicsOnZeroMass: a branch the state does not
// support has zero mass and can never be renormalised onto.
func TestRenormalizeMassPanicsOnZeroMass(t *testing.T) {
	s := New(2) // |00> has no mass on q0 = 1
	mass := s.ApplyKraus1(projector(1), 0)
	if mass != 0 {
		t.Fatalf("projecting |00> onto q0=1 left mass %v", mass)
	}
	for _, m := range []float64{mass, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RenormalizeMass(%v) did not panic", m)
				}
			}()
			s.RenormalizeMass(m)
		}()
	}
}

// TestResetReusesAllocation: Reset returns any state to |0...0> in place,
// on the backing array it already had.
func TestResetReusesAllocation(t *testing.T) {
	for _, ws := range workerSettings {
		t.Run(ws.name, func(t *testing.T) {
			s := NewRandom(engineN, rng.New(911))
			s.SetParallelism(ws.workers)
			before := &s.Amplitudes()[0]
			s.Reset()
			if &s.Amplitudes()[0] != before {
				t.Error("Reset allocated a new amplitude vector")
			}
			if d := s.MaxDiff(New(engineN)); d != 0 {
				t.Fatalf("Reset left a state %g away from |0...0>", d)
			}
		})
	}
}
