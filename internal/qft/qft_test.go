package qft_test

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/bitops"
	"repro/internal/qft"
	"repro/internal/rng"
	"repro/internal/statevec"
)

func TestCircuitMatchesDFTMatrix(t *testing.T) {
	// Column y of the QFT unitary must be 2^{-n/2} e^{2 pi i x y / N}.
	for _, n := range []uint{1, 2, 3, 4} {
		dim := uint64(1) << n
		for x := uint64(0); x < dim; x++ {
			st := statevec.NewBasis(n, x)
			qft.Circuit(n).Run(st)
			scale := 1 / math.Sqrt(float64(dim))
			for y := uint64(0); y < dim; y++ {
				want := complex(scale, 0) *
					cmplx.Exp(complex(0, 2*math.Pi*float64(x)*float64(y)/float64(dim)))
				if cmplx.Abs(st.Amplitude(y)-want) > 1e-10 {
					t.Fatalf("n=%d: QFT|%d> amplitude at %d wrong: %v vs %v",
						n, x, y, st.Amplitude(y), want)
				}
			}
		}
	}
}

func TestNoSwapIsBitReversed(t *testing.T) {
	// qft.CircuitNoSwap must equal qft.Circuit followed by index bit reversal.
	n := uint(4)
	src := rng.New(3)
	st := statevec.NewRandom(n, src)
	full := st.Clone()
	qft.Circuit(n).Run(full)
	ns := st.Clone()
	qft.CircuitNoSwap(n).Run(ns)
	for i := uint64(0); i < st.Dim(); i++ {
		rev := bitops.ReverseBits(i, n)
		if cmplx.Abs(ns.Amplitude(rev)-full.Amplitude(i)) > 1e-10 {
			t.Fatalf("bit-reversal relation broken at %d", i)
		}
	}
}

func TestInverseCircuit(t *testing.T) {
	n := uint(5)
	src := rng.New(4)
	st := statevec.NewRandom(n, src)
	orig := st.Clone()
	qft.Circuit(n).Run(st)
	qft.InverseCircuit(n).Run(st)
	if d := st.MaxDiff(orig); d > 1e-9 {
		t.Fatalf("QFT inverse round trip error %g", d)
	}
}

func TestGateCount(t *testing.T) {
	// n Hadamards, n(n-1)/2 phase shifts and the three CNOTs of each of the
	// floor(n/2) reversal swaps.
	for _, n := range []uint{1, 2, 5, 10} {
		if got, want := qft.Circuit(n).Len(), int(n+n*(n-1)/2+3*(n/2)); got != want {
			t.Errorf("n=%d: Len=%d, want %d", n, got, want)
		}
	}
	// The paper's complexity claim: n Hadamards + n(n-1)/2 phase shifts,
	// every one of them diagonal.
	var h, cr int
	for _, g := range qft.CircuitNoSwap(10).Gates {
		switch {
		case g.Name == "H":
			h++
		case g.Name == "R" && g.IsDiagonalOnState():
			cr++
		default:
			t.Errorf("unexpected gate %v", g)
		}
	}
	if h != 10 || cr != 45 {
		t.Errorf("H count %d, diagonal CR count %d; want 10 and 45", h, cr)
	}
}

func TestEntangler(t *testing.T) {
	// qft.Entangler prepares the GHZ state (|0...0> + |1...1>)/sqrt2.
	for _, n := range []uint{2, 5, 10} {
		st := statevec.New(n)
		qft.Entangler(n).Run(st)
		w := 1 / math.Sqrt2
		if cmplx.Abs(st.Amplitude(0)-complex(w, 0)) > 1e-12 ||
			cmplx.Abs(st.Amplitude(st.Dim()-1)-complex(w, 0)) > 1e-12 {
			t.Fatalf("n=%d: not a GHZ state", n)
		}
		if c := qft.Entangler(n).Len(); c != int(n) {
			t.Errorf("entangler gate count %d, want %d", c, n)
		}
	}
}
