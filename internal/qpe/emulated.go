package qpe

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"

	"repro/internal/circuit"
	"repro/internal/fft"
	"repro/internal/linalg"
	"repro/internal/statevec"
)

// DenseUnitary builds the full 2^n x 2^n matrix of a circuit by running it
// on every computational basis state: column i is C|i>. Cost O(G * 2^(2n)),
// exactly the "T_construction of dense U" step of Table 2. QPE consumes the
// result.
func DenseUnitary(c *circuit.Circuit) *linalg.Matrix {
	n := c.NumQubits
	dim := 1 << n
	u := linalg.NewMatrix(dim, dim)
	for col := 0; col < dim; col++ {
		st := statevec.NewBasis(n, uint64(col))
		c.Run(st)
		for row, a := range st.Amplitudes() {
			u.Set(row, col, a)
		}
	}
	return u
}

// PhaseEstimate is the result of an emulated quantum phase estimation.
type PhaseEstimate struct {
	// Bits is the requested precision b.
	Bits uint
	// Distribution[y] is the probability that the b-bit QPE readout is y,
	// i.e. that the phase is estimated as y / 2^b.
	Distribution []float64
}

// Mode selects the QPE emulation strategy of Section 3.3.
type Mode int

const (
	// RepeatedSquaring builds U, squares it b-1 times and runs the
	// coherent QPE network with emulated controlled matrix applications.
	RepeatedSquaring Mode = iota
	// RepeatedSquaringStrassen is RepeatedSquaring with Strassen products.
	RepeatedSquaringStrassen
	// Eigendecomposition diagonalises U and evaluates the QPE output
	// distribution in closed form.
	Eigendecomposition
)

func (m Mode) String() string {
	switch m {
	case RepeatedSquaring:
		return "repeated-squaring"
	case RepeatedSquaringStrassen:
		return "repeated-squaring-strassen"
	case Eigendecomposition:
		return "eigendecomposition"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// RepeatedSquares returns [U, U^2, U^4, ..., U^(2^(b-1))]: the operator
// powers Eq. 7 requires, at b-1 dense products instead of the simulator's
// 2^b - 1 full circuit applications.
func RepeatedSquares(u *linalg.Matrix, b uint, strassen bool) []*linalg.Matrix {
	if b == 0 {
		return nil
	}
	powers := make([]*linalg.Matrix, b)
	powers[0] = u
	for i := uint(1); i < b; i++ {
		prev := powers[i-1]
		if strassen {
			powers[i] = prev.Strassen(prev)
		} else {
			powers[i] = prev.Mul(prev)
		}
	}
	return powers
}

// QPE performs a b-bit phase estimation of the unitary u (dim 2^n) on the
// system state psi (length 2^n), emulated according to mode. It returns
// the exact readout distribution — the full information a hardware QPE
// would need 2^b-fold repetition to estimate.
func QPE(u *linalg.Matrix, psi []complex128, b uint, mode Mode) (*PhaseEstimate, error) {
	if u.Rows != u.Cols {
		return nil, fmt.Errorf("qpe: QPE operator is %dx%d, not square", u.Rows, u.Cols)
	}
	if len(psi) != u.Rows {
		return nil, fmt.Errorf("qpe: state length %d does not match operator dim %d", len(psi), u.Rows)
	}
	switch mode {
	case Eigendecomposition:
		return qpeEigen(u, psi, b)
	case RepeatedSquaring, RepeatedSquaringStrassen:
		return qpeSquaring(u, psi, b, mode == RepeatedSquaringStrassen)
	default:
		return nil, fmt.Errorf("qpe: unknown QPE mode %v", mode)
	}
}

// qpeSquaring runs the coherent QPE network with b ancilla qubits: H on
// every ancilla, controlled-U^(2^i) applied as a dense matrix to the
// system sub-blocks, then an inverse QFT on the ancilla register via FFT.
func qpeSquaring(u *linalg.Matrix, psi []complex128, b uint, strassen bool) (*PhaseEstimate, error) {
	n := uint(0)
	for (1 << n) < u.Rows {
		n++
	}
	if (1 << n) != u.Rows {
		return nil, fmt.Errorf("qpe: operator dim %d is not a power of two", u.Rows)
	}
	powers := RepeatedSquares(u, b, strassen)

	// Joint register: system on qubits [0,n), ancillas on [n, n+b).
	joint := make([]complex128, uint64(1)<<(n+b))
	// Ancillas after Hadamards: uniform superposition; system: psi.
	// Combined amplitude: psi[s] / sqrt(2^b) at index (x << n) | s.
	norm := complex(1/math.Sqrt(float64(uint64(1)<<b)), 0)
	dim := uint64(1) << n
	for x := uint64(0); x < uint64(1)<<b; x++ {
		base := x << n
		for s := uint64(0); s < dim; s++ {
			joint[base|s] = psi[s] * norm
		}
	}
	// Controlled-U^(2^i) on ancilla i: multiply every system block whose
	// ancilla index has bit i set.
	scratch := make([]complex128, dim)
	for i := uint(0); i < b; i++ {
		p := powers[i]
		for x := uint64(0); x < uint64(1)<<b; x++ {
			if (x>>i)&1 == 0 {
				continue
			}
			block := joint[x<<n : (x+1)<<n]
			matVecInto(scratch, p, block)
			copy(block, scratch)
		}
	}
	// Inverse QFT on the ancilla field as an FFT along it, then
	// marginalise the system out.
	if b > 0 {
		plan, err := fft.NewPlan(uint64(1) << b)
		if err != nil {
			return nil, fmt.Errorf("qpe: inverse QFT on %d ancillas: %w", b, err)
		}
		plan.TransformField(joint, n, true, runtime.GOMAXPROCS(0))
	}
	dist := make([]float64, uint64(1)<<b)
	for x := uint64(0); x < uint64(1)<<b; x++ {
		var acc float64
		block := joint[x<<n : (x+1)<<n]
		for _, a := range block {
			acc += real(a)*real(a) + imag(a)*imag(a)
		}
		dist[x] = acc
	}
	return &PhaseEstimate{Bits: b, Distribution: dist}, nil
}

// qpeEigen diagonalises u and evaluates the exact QPE readout distribution
// analytically: each eigenpair (theta_k, v_k) contributes weight
// |<v_k|psi>|^2 spread over readouts y by the Fejer-like kernel
// |sin(pi 2^b d) / (2^b sin(pi d))|^2 with d = theta_k - y/2^b.
func qpeEigen(u *linalg.Matrix, psi []complex128, b uint) (*PhaseEstimate, error) {
	eig, err := linalg.Eig(u)
	if err != nil {
		return nil, err
	}
	nEig := len(eig.Values)
	// Weights: |<v_k|psi>|^2. Eigenvectors of a unitary are orthonormal,
	// so the adjoint gives the coefficients directly.
	weights := make([]float64, nEig)
	phases := make([]float64, nEig)
	for k := 0; k < nEig; k++ {
		var ip complex128
		for i := 0; i < nEig; i++ {
			ip += cmplx.Conj(eig.Vectors.At(i, k)) * psi[i]
		}
		weights[k] = real(ip)*real(ip) + imag(ip)*imag(ip)
		theta := cmplx.Phase(eig.Values[k]) / (2 * math.Pi)
		if theta < 0 {
			theta++
		}
		phases[k] = theta
	}
	size := uint64(1) << b
	dist := make([]float64, size)
	scale := 1 / float64(size)
	for k := 0; k < nEig; k++ {
		if weights[k] < 1e-18 {
			continue
		}
		for y := uint64(0); y < size; y++ {
			d := phases[k] - float64(y)/float64(size)
			kernel := qpeKernel(d, size)
			dist[y] += weights[k] * kernel * scale * scale
		}
	}
	return &PhaseEstimate{Bits: b, Distribution: dist}, nil
}

// qpeKernel returns |sin(pi 2^b d)/sin(pi d)|^2 (continuity-extended at
// integer d, where it equals 2^(2b)).
func qpeKernel(d float64, size uint64) float64 {
	d -= math.Round(d) // periodic in d with period 1
	den := math.Sin(math.Pi * d)
	if math.Abs(den) < 1e-300 {
		return float64(size) * float64(size)
	}
	num := math.Sin(math.Pi * float64(size) * d)
	r := num / den
	return r * r
}

// Top returns the most probable readout and its probability.
func (p *PhaseEstimate) Top() (uint64, float64) {
	best := uint64(0)
	bp := -1.0
	for y, pr := range p.Distribution {
		if pr > bp {
			bp = pr
			best = uint64(y)
		}
	}
	return best, bp
}

// PhaseOf converts a readout to its phase estimate y / 2^b in [0, 1).
func (p *PhaseEstimate) PhaseOf(y uint64) float64 {
	return float64(y) / float64(uint64(1)<<p.Bits)
}

// matVecInto computes y = m*x without allocating.
func matVecInto(y []complex128, m *linalg.Matrix, x []complex128) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var acc complex128
		for j, v := range row {
			acc += v * x[j]
		}
		y[i] = acc
	}
}
