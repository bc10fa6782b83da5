package qpe

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/ising"
	"repro/internal/linalg"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// diagonalUnitary builds diag(e^{2 pi i theta_k}) for given phases.
func diagonalUnitary(phases []float64) *linalg.Matrix {
	n := len(phases)
	u := linalg.NewMatrix(n, n)
	for i, th := range phases {
		u.Set(i, i, cmplx.Exp(complex(0, 2*math.Pi*th)))
	}
	return u
}

func TestRepeatedSquares(t *testing.T) {
	phases := []float64{0.25, 0.5, 0.125, 0.75}
	u := diagonalUnitary(phases)
	pows := RepeatedSquares(u, 3, false)
	if len(pows) != 3 {
		t.Fatalf("got %d powers", len(pows))
	}
	// pows[2] = U^4: phase 4*theta mod 1.
	for i, th := range phases {
		want := cmplx.Exp(complex(0, 2*math.Pi*4*th))
		if cmplx.Abs(pows[2].At(i, i)-want) > 1e-12 {
			t.Errorf("U^4[%d][%d] wrong", i, i)
		}
	}
}

func TestQPEExactPhaseEigen(t *testing.T) {
	// Eigenstate with an exactly representable phase: the readout must be
	// deterministic for both emulation modes.
	theta := 0.375 // = 0.011 binary, exact in 3 bits
	u := diagonalUnitary([]float64{theta, 0.7})
	psi := []complex128{1, 0} // eigenvector of theta
	for _, mode := range []Mode{Eigendecomposition, RepeatedSquaring, RepeatedSquaringStrassen} {
		est, err := QPE(u, psi, 3, mode)
		if err != nil {
			t.Fatal(err)
		}
		y, p := est.Top()
		if est.PhaseOf(y) != theta {
			t.Errorf("%v: estimated phase %v, want %v", mode, est.PhaseOf(y), theta)
		}
		if p < 1-1e-9 {
			t.Errorf("%v: exact phase not deterministic: p=%v", mode, p)
		}
	}
}

func TestQPEModesAgree(t *testing.T) {
	// For a non-trivial unitary and superposed input, the two emulation
	// strategies must produce the same readout distribution.
	phases := []float64{0.2, 0.55, 0.71, 0.05}
	u := diagonalUnitary(phases)
	psi := []complex128{0.5, 0.5, 0.5, 0.5}
	b := uint(4)
	eig, err := QPE(u, psi, b, Eigendecomposition)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := QPE(u, psi, b, RepeatedSquaring)
	if err != nil {
		t.Fatal(err)
	}
	for y := range eig.Distribution {
		if math.Abs(eig.Distribution[y]-sq.Distribution[y]) > 1e-8 {
			t.Fatalf("distributions differ at %d: %v vs %v",
				y, eig.Distribution[y], sq.Distribution[y])
		}
	}
}

func TestQPEDistributionNormalised(t *testing.T) {
	phases := []float64{0.123, 0.456}
	u := diagonalUnitary(phases)
	psi := []complex128{complex(math.Sqrt(0.3), 0), complex(math.Sqrt(0.7), 0)}
	for _, mode := range []Mode{Eigendecomposition, RepeatedSquaring} {
		est, err := QPE(u, psi, 5, mode)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, p := range est.Distribution {
			sum += p
		}
		if math.Abs(sum-1) > 1e-8 {
			t.Errorf("%v: distribution sums to %v", mode, sum)
		}
	}
}

func TestQPEWeightsSplit(t *testing.T) {
	// Input = equal superposition of two eigenvectors with exact phases:
	// the readout must be 50/50 between the two phase values.
	u := diagonalUnitary([]float64{0.25, 0.75})
	s := complex(1/math.Sqrt2, 0)
	psi := []complex128{s, s}
	est, err := QPE(u, psi, 2, Eigendecomposition)
	if err != nil {
		t.Fatal(err)
	}
	// Phases 0.25 -> y=1, 0.75 -> y=3 at b=2.
	if math.Abs(est.Distribution[1]-0.5) > 1e-9 || math.Abs(est.Distribution[3]-0.5) > 1e-9 {
		t.Fatalf("distribution %v, want 0.5 at y=1 and y=3", est.Distribution)
	}
}

// TestQPEOnIsingMatchesTrueEigenphase applies both emulated QPE modes to
// the Table 2 workload (the TFIM Trotter step) prepared in an eigenvector
// computed independently, and checks the readout peaks at the eigenphase.
func TestQPEOnIsingMatchesTrueEigenphase(t *testing.T) {
	n := uint(3)
	circ := ising.TrotterStep(n, ising.DefaultParams())
	u := DenseUnitary(circ)
	eig, err := linalg.Eig(u)
	if err != nil {
		t.Fatal(err)
	}
	// Take eigenvector 0.
	dim := 1 << n
	psi := make([]complex128, dim)
	for i := 0; i < dim; i++ {
		psi[i] = eig.Vectors.At(i, 0)
	}
	theta := cmplx.Phase(eig.Values[0]) / (2 * math.Pi)
	if theta < 0 {
		theta++
	}
	b := uint(6)
	for _, mode := range []Mode{Eigendecomposition, RepeatedSquaring} {
		est, err := QPE(u, psi, b, mode)
		if err != nil {
			t.Fatal(err)
		}
		y, p := est.Top()
		got := est.PhaseOf(y)
		diff := math.Abs(got - theta)
		if diff > 0.5 {
			diff = 1 - diff
		}
		if diff > 1.0/float64(int(1)<<b) {
			t.Errorf("%v: estimated %v, true %v", mode, got, theta)
		}
		if p < 0.4 {
			t.Errorf("%v: top-readout probability only %v", mode, p)
		}
	}
}

func TestQPEInputValidation(t *testing.T) {
	u := linalg.NewMatrix(3, 3) // not power-of-two square? 3x3 square but psi mismatch
	if _, err := QPE(u, make([]complex128, 4), 2, Eigendecomposition); err == nil {
		t.Error("dimension mismatch accepted")
	}
	u2 := linalg.NewMatrix(2, 3)
	if _, err := QPE(u2, make([]complex128, 3), 2, Eigendecomposition); err == nil {
		t.Error("non-square accepted")
	}
}

func TestQPEKernelProperties(t *testing.T) {
	// The kernel must integrate (sum over readouts / 2^{2b}) to 1 and be
	// maximal at d = 0.
	size := uint64(16)
	var sum float64
	for y := uint64(0); y < size; y++ {
		d := -float64(y) / float64(size)
		sum += qpeKernel(d, size) / float64(size*size)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("kernel sums to %v", sum)
	}
	if qpeKernel(0, size) != float64(size*size) {
		t.Error("kernel peak wrong")
	}
}

func TestDenseUnitaryOfCNOT(t *testing.T) {
	c := circuit.New(2)
	c.Append(gates.CNOT(0, 1))
	u := DenseUnitary(c)
	// CNOT with control q0, target q1: |01> <-> |11>, i.e. columns 1 and 3
	// swapped relative to identity.
	want := [][]complex128{
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if u.At(i, j) != want[i][j] {
				t.Fatalf("U[%d][%d] = %v, want %v", i, j, u.At(i, j), want[i][j])
			}
		}
	}
}

func TestDenseUnitaryIsUnitary(t *testing.T) {
	src := rng.New(707)
	c := circgen.Brickwork(src, 4, 4)
	c.Extend(circgen.QFTLadders(src, 4, 2))
	u := DenseUnitary(c)
	if !u.IsUnitary(1e-9) {
		t.Error("circuit unitary is not unitary")
	}
	// And it must act like the circuit on a random state.
	st := statevec.NewRandom(4, src)
	viaMatrix := u.MatVec(st.Amplitudes())
	viaGates := st.Clone()
	c.Run(viaGates)
	for i, v := range viaMatrix {
		d := v - viaGates.Amplitude(uint64(i))
		if math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("matrix path differs at %d", i)
		}
	}
}
