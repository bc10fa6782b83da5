// Package gates defines the standard quantum gate set of the paper's
// Table 1, together with the structural classification (diagonal,
// anti-diagonal, permutation, ...) that the optimised simulator kernels
// exploit to skip multiplications by zeros and ones and to avoid
// communication in the distributed back-end.
package gates

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix2 is a dense 2x2 complex matrix in row-major order:
//
//	[ M[0] M[1] ]
//	[ M[2] M[3] ]
//
// It is the unitary of a single-qubit gate.
type Matrix2 [4]complex128

// Kind classifies the structure of a single-qubit gate matrix. The
// classification drives kernel selection: a Diagonal gate touches each
// amplitude once with one multiply; an AntiDiagonal gate is a swap plus
// phases; Dense needs the full 2x2 kernel.
type Kind int

const (
	// Dense means no exploitable structure: full 2x2 kernel.
	Dense Kind = iota
	// Diagonal means M[1] == M[2] == 0 (e.g. Z, S, T, Rz, phase shifts).
	Diagonal
	// AntiDiagonal means M[0] == M[3] == 0 (e.g. X, Y).
	AntiDiagonal
	// Identity means the gate is a global-phase multiple of the identity.
	Identity
)

func (k Kind) String() string {
	switch k {
	case Dense:
		return "dense"
	case Diagonal:
		return "diagonal"
	case AntiDiagonal:
		return "antidiagonal"
	case Identity:
		return "identity"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// structureEps is the tolerance below which a matrix entry is treated as an
// exact zero when classifying gate structure.
const structureEps = 1e-14

// Classify returns the structural Kind of m.
func (m Matrix2) Classify() Kind {
	offZero := cmplx.Abs(m[1]) < structureEps && cmplx.Abs(m[2]) < structureEps
	diagZero := cmplx.Abs(m[0]) < structureEps && cmplx.Abs(m[3]) < structureEps
	switch {
	case offZero && cmplx.Abs(m[0]-m[3]) < structureEps:
		return Identity
	case offZero:
		return Diagonal
	case diagZero:
		return AntiDiagonal
	default:
		return Dense
	}
}

// Mul returns the matrix product m*other (m applied after other). Gate
// fusion composes adjacent single-qubit gates on the same target into one
// matrix so the state vector is traversed once instead of twice.
func (m Matrix2) Mul(other Matrix2) Matrix2 {
	return Matrix2{
		m[0]*other[0] + m[1]*other[2],
		m[0]*other[1] + m[1]*other[3],
		m[2]*other[0] + m[3]*other[2],
		m[2]*other[1] + m[3]*other[3],
	}
}

// Adjoint returns the conjugate transpose of m. For a unitary gate this is
// its inverse, used to build the reverse (uncomputation) circuit.
func (m Matrix2) Adjoint() Matrix2 {
	return Matrix2{
		cmplx.Conj(m[0]), cmplx.Conj(m[2]),
		cmplx.Conj(m[1]), cmplx.Conj(m[3]),
	}
}

// IsUnitary reports whether m†m = I to within eps.
func (m Matrix2) IsUnitary(eps float64) bool {
	p := m.Adjoint().Mul(m)
	return cmplx.Abs(p[0]-1) < eps && cmplx.Abs(p[1]) < eps &&
		cmplx.Abs(p[2]) < eps && cmplx.Abs(p[3]-1) < eps
}

// Gate is a single-qubit gate: a named unitary applied to a target qubit,
// optionally conditioned on control qubits (all of which must read 1).
// Multi-qubit standard gates (CNOT, CR, Toffoli) are represented as a
// single-qubit core plus controls, exactly as the paper treats them.
type Gate struct {
	// Name identifies the gate for printing and for the specialised
	// simulator kernels ("X", "H", "Rz", ...). It is informative only;
	// Matrix is authoritative.
	Name string
	// Matrix is the 2x2 unitary applied to Target.
	Matrix Matrix2
	// Target is the qubit the 2x2 matrix acts on.
	Target uint
	// Controls lists control qubits; empty means uncontrolled.
	Controls []uint
}

// Kind returns the structural classification of the gate's matrix.
func (g Gate) Kind() Kind { return g.Matrix.Classify() }

// IsDiagonalOnState reports whether the full 2^n x 2^n matrix of the gate
// (including controls) is diagonal. Controlled phase shifts fall in this
// class: the distributed simulator needs no communication for them.
func (g Gate) IsDiagonalOnState() bool {
	k := g.Kind()
	return k == Diagonal || k == Identity
}

// Qubits returns every qubit the gate touches (target first).
func (g Gate) Qubits() []uint {
	qs := make([]uint, 0, 1+len(g.Controls))
	qs = append(qs, g.Target)
	return append(qs, g.Controls...)
}

// MaxQubit returns the highest qubit index the gate touches.
func (g Gate) MaxQubit() uint {
	m := g.Target
	for _, c := range g.Controls {
		if c > m {
			m = c
		}
	}
	return m
}

// Dagger returns the inverse gate.
func (g Gate) Dagger() Gate {
	inv := g
	inv.Matrix = g.Matrix.Adjoint()
	if g.Name != "" {
		inv.Name = g.Name + "†"
	}
	inv.Controls = append([]uint(nil), g.Controls...)
	return inv
}

// WithControls returns a copy of g with the extra controls appended.
func (g Gate) WithControls(controls ...uint) Gate {
	cg := g
	cg.Controls = append(append([]uint(nil), g.Controls...), controls...)
	return cg
}

func (g Gate) String() string {
	if len(g.Controls) == 0 {
		return fmt.Sprintf("%s(q%d)", g.Name, g.Target)
	}
	return fmt.Sprintf("C%v-%s(q%d)", g.Controls, g.Name, g.Target)
}

// invSqrt2 is 1/sqrt(2), the Hadamard normalisation.
var invSqrt2 = complex(1/math.Sqrt2, 0)

// Standard gate matrices (Table 1 of the paper).
var (
	// MatI is the identity.
	MatI = Matrix2{1, 0, 0, 1}
	// MatX is the NOT gate.
	MatX = Matrix2{0, 1, 1, 0}
	// MatY is the Pauli Y gate.
	MatY = Matrix2{0, -1i, 1i, 0}
	// MatZ is the Pauli Z gate.
	MatZ = Matrix2{1, 0, 0, -1}
	// MatH is the Hadamard gate.
	MatH = Matrix2{invSqrt2, invSqrt2, invSqrt2, -invSqrt2}
	// MatS is the phase gate diag(1, i).
	MatS = Matrix2{1, 0, 0, 1i}
	// MatT is the pi/8 gate diag(1, e^{i pi/4}).
	MatT = Matrix2{1, 0, 0, cmplx.Exp(1i * math.Pi / 4)}
)

// X returns a NOT gate on qubit q.
func X(q uint) Gate { return Gate{Name: "X", Matrix: MatX, Target: q} }

// Y returns a Pauli-Y gate on qubit q.
func Y(q uint) Gate { return Gate{Name: "Y", Matrix: MatY, Target: q} }

// Z returns a Pauli-Z gate on qubit q.
func Z(q uint) Gate { return Gate{Name: "Z", Matrix: MatZ, Target: q} }

// H returns a Hadamard gate on qubit q.
func H(q uint) Gate { return Gate{Name: "H", Matrix: MatH, Target: q} }

// S returns the phase gate diag(1, i) on qubit q.
func S(q uint) Gate { return Gate{Name: "S", Matrix: MatS, Target: q} }

// T returns the pi/8 gate on qubit q.
func T(q uint) Gate { return Gate{Name: "T", Matrix: MatT, Target: q} }

// Rx returns the rotation exp(-i theta X / 2) on qubit q.
func Rx(q uint, theta float64) Gate {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return Gate{Name: "Rx", Matrix: Matrix2{c, s, s, c}, Target: q}
}

// Ry returns the rotation exp(-i theta Y / 2) on qubit q.
func Ry(q uint, theta float64) Gate {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return Gate{Name: "Ry", Matrix: Matrix2{c, -s, s, c}, Target: q}
}

// Rz returns the rotation diag(e^{-i theta/2}, e^{i theta/2}) on qubit q.
func Rz(q uint, theta float64) Gate {
	return Gate{
		Name:   "Rz",
		Matrix: Matrix2{cmplx.Exp(complex(0, -theta/2)), 0, 0, cmplx.Exp(complex(0, theta/2))},
		Target: q,
	}
}

// Phase returns the phase shift diag(1, e^{i theta}) on qubit q. With one
// control it is the conditional phase shift CR of Table 1, the workhorse of
// the QFT circuit.
func Phase(q uint, theta float64) Gate {
	return Gate{
		Name:   "R",
		Matrix: Matrix2{1, 0, 0, cmplx.Exp(complex(0, theta))},
		Target: q,
	}
}

// CNOT returns a NOT on target controlled by control.
func CNOT(control, target uint) Gate {
	return Gate{Name: "X", Matrix: MatX, Target: target, Controls: []uint{control}}
}

// CZ returns a Z on target controlled by control.
func CZ(control, target uint) Gate {
	return Gate{Name: "Z", Matrix: MatZ, Target: target, Controls: []uint{control}}
}

// CR returns the conditional phase shift of Table 1: diag(1,1,1,e^{i theta}).
func CR(control, target uint, theta float64) Gate {
	return Phase(target, theta).WithControls(control)
}

// Toffoli returns a doubly controlled NOT (CCNOT), the universal reversible
// logic gate that classical-function circuits are compiled to.
func Toffoli(c0, c1, target uint) Gate {
	return Gate{Name: "X", Matrix: MatX, Target: target, Controls: []uint{c0, c1}}
}

// Swap returns the three CNOTs that exchange qubits a and b.
func Swap(a, b uint) []Gate {
	return []Gate{CNOT(a, b), CNOT(b, a), CNOT(a, b)}
}
