// Package ising builds the time-evolution circuit of the one-dimensional
// transverse-field Ising model (TFIM),
//
//	H = -J sum_i Z_i Z_{i+1} - h sum_i X_i,
//
// which is the unitary U the paper's Table 2 applies quantum phase
// estimation to. One first-order Trotter step of exp(-i H dt) compiles to
// exactly G = 4n - 3 gates (n Rx rotations plus n-1 ZZ interactions at
// CNOT-Rz-CNOT each), reproducing the gate counts 29, 33, ..., 53 the
// table lists for n = 8..14.
package ising

import (
	"repro/internal/circuit"
	"repro/internal/gates"
)

// Params fixes the model and step size.
type Params struct {
	J  float64 // ZZ coupling
	H  float64 // transverse field
	Dt float64 // Trotter time step
}

// DefaultParams returns the parameter set the benchmarks use: the critical
// point J = h = 1 with a modest step.
func DefaultParams() Params { return Params{J: 1, H: 1, Dt: 0.1} }

// TrotterStep returns one first-order Trotter step of exp(-i H dt) on an
// open chain of n qubits: G = 4n - 3 gates.
func TrotterStep(n uint, p Params) *circuit.Circuit {
	c := circuit.New(n)
	// exp(+i h dt X_i) on every site.
	for q := uint(0); q < n; q++ {
		c.Append(gates.Rx(q, -2*p.H*p.Dt))
	}
	// exp(+i J dt Z_i Z_{i+1}) on every bond: CNOT, Rz, CNOT.
	for q := uint(0); q+1 < n; q++ {
		c.Append(gates.CNOT(q, q+1))
		c.Append(gates.Rz(q+1, -2*p.J*p.Dt))
		c.Append(gates.CNOT(q, q+1))
	}
	return c
}

// GateCount returns the Table 2 gate count G = 4n - 3 for one step.
func GateCount(n uint) int { return 4*int(n) - 3 }
