package perfmodel

import (
	"math"
	"strings"
	"testing"
)

func TestSingleNodeSpeedupMatchesPaper(t *testing.T) {
	// Section 4.3: on one node the predicted FFT-over-QFT speedup is
	// n * FLOPS_achieved / B_mem = 28 * 20e9/40e9 = 14; the paper observes 15.
	m := Stampede()
	s := m.SpeedupFFTvsQFT(28, 1)
	if s < 10 || s > 20 {
		t.Errorf("single-node speedup %v outside the paper's 14-15 ballpark", s)
	}
}

func TestAchievedFFTFlops(t *testing.T) {
	// The machine description must put the achieved FFT rate near the
	// paper's "FFT achieves ~20 GFlops" on one node.
	m := Stampede()
	achieved := m.EffFFT * m.FLOPSPeak
	if achieved < 15e9 || achieved > 25e9 {
		t.Errorf("achieved FFT rate %v, want ~20e9", achieved)
	}
}

func TestWeakScalingShape(t *testing.T) {
	// Figure 3's qualitative content: speedup in the 6-15x band over the
	// 28-36 qubit weak-scaling line, FFT always winning.
	m := Stampede()
	pts := m.WeakScaling(28, 36)
	if len(pts) != 9 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, pt := range pts {
		if pt.TFFT >= pt.TQFT {
			t.Errorf("n=%d: model says QFT faster than FFT", pt.Qubits)
		}
		if pt.Speedup < 3 || pt.Speedup > 40 {
			t.Errorf("n=%d: speedup %v implausible vs paper's 6-15x", pt.Qubits, pt.Speedup)
		}
	}
	// Nodes double per qubit.
	for i, pt := range pts {
		if pt.Nodes != 1<<i {
			t.Errorf("point %d has %d nodes", i, pt.Nodes)
		}
	}
}

func TestWeakScalingSpanFitsAnInt(t *testing.T) {
	// The widest span ends on 2^62 nodes with finite times; one qubit more
	// would need 2^63 nodes, which wraps an int, so it panics instead.
	m := Stampede()
	pts := m.WeakScaling(1, 1+MaxWeakScalingSpan)
	last := pts[len(pts)-1]
	if last.Nodes != 1<<62 {
		t.Errorf("span %d ends on %d nodes, want 2^62", MaxWeakScalingSpan, last.Nodes)
	}
	for _, pt := range pts {
		for _, v := range []float64{pt.TFFT, pt.TQFT, pt.Speedup} {
			if math.IsInf(v, 0) || math.IsNaN(v) || v <= 0 {
				t.Fatalf("n=%d on %d nodes: %+v is not finite and positive", pt.Qubits, pt.Nodes, pt)
			}
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "perfmodel:") {
			t.Errorf("span 63 recovered %q, want a perfmodel: panic", msg)
		}
	}()
	m.WeakScaling(1, 2+MaxWeakScalingSpan)
}

func TestCommunicationRatioLog2P(t *testing.T) {
	// Eq. 5 vs Eq. 6: the communication-term ratio QFT/FFT is log2(P)/3.
	m := Stampede()
	p := 64
	n := uint(34)
	N := math.Pow(2, float64(n))
	fftComm := 3 * 16 * N / (m.BNetNode * float64(p))
	qftComm := math.Log2(float64(p)) * 16 * N / (m.BNetNode * float64(p))
	if r := qftComm / fftComm; math.Abs(r-math.Log2(float64(p))/3) > 1e-12 {
		t.Errorf("communication ratio %v", r)
	}
}

func TestQPECrossOverMonotonic(t *testing.T) {
	// With construction/gemm costs growing ~8x per qubit and apply cost
	// ~2x, the cross-over precision must increase with n (as in Table 2).
	costs := []QPECosts{
		{NQubits: 8, TApply: 1.44e-4, TConstruct: 7.6e-4, TGemm: 8.39e-4, TEig: 9.6e-2},
		{NQubits: 10, TApply: 1.8e-4, TConstruct: 1.55e-2, TGemm: 5.37e-2, TEig: 1.7},
		{NQubits: 12, TApply: 2.44e-4, TConstruct: 3.02e-1, TGemm: 3.44, TEig: 3.22e1},
		{NQubits: 14, TApply: 4.92e-4, TConstruct: 5.69, TGemm: 2.2e2, TEig: 9.01e2},
	}
	prevSq, prevEig := uint(0), uint(0)
	for _, c := range costs {
		sq := c.CrossOverSquaring()
		eg := c.CrossOverEig()
		if sq < prevSq {
			t.Errorf("n=%d: squaring cross-over decreased", c.NQubits)
		}
		if eg < prevEig {
			t.Errorf("n=%d: eig cross-over decreased", c.NQubits)
		}
		prevSq, prevEig = sq, eg
	}
}

func TestQPECrossOverReproducesTable2(t *testing.T) {
	// Feeding the paper's own measured timings into the cross-over search
	// must reproduce the paper's cross-over rows (6,9,...,24 and
	// 10,12,...,21), modulo +-1 bit from rounding of the printed timings.
	rows := []struct {
		costs   QPECosts
		wantSq  uint
		wantEig uint
	}{
		{QPECosts{NQubits: 8, TApply: 1.44e-4, TConstruct: 7.60e-4, TGemm: 8.39e-4, TEig: 9.60e-2}, 6, 10},
		{QPECosts{NQubits: 9, TApply: 1.60e-4, TConstruct: 3.46e-3, TGemm: 6.71e-3, TEig: 5.27e-1}, 9, 12},
		{QPECosts{NQubits: 10, TApply: 1.80e-4, TConstruct: 1.55e-2, TGemm: 5.37e-2, TEig: 1.70}, 12, 14},
		{QPECosts{NQubits: 11, TApply: 2.11e-4, TConstruct: 6.88e-2, TGemm: 4.29e-1, TEig: 6.72}, 15, 15},
		{QPECosts{NQubits: 12, TApply: 2.44e-4, TConstruct: 3.02e-1, TGemm: 3.44, TEig: 3.22e1}, 18, 18},
		{QPECosts{NQubits: 13, TApply: 3.46e-4, TConstruct: 1.32, TGemm: 2.75e1, TEig: 1.80e2}, 21, 19},
		{QPECosts{NQubits: 14, TApply: 4.92e-4, TConstruct: 5.69, TGemm: 2.20e2, TEig: 9.01e2}, 24, 21},
	}
	for _, r := range rows {
		sq := r.costs.CrossOverSquaring()
		eg := r.costs.CrossOverEig()
		if int(sq)-int(r.wantSq) > 1 || int(r.wantSq)-int(sq) > 1 {
			t.Errorf("n=%d: squaring cross-over %d, paper %d", r.costs.NQubits, sq, r.wantSq)
		}
		if int(eg)-int(r.wantEig) > 1 || int(r.wantEig)-int(eg) > 1 {
			t.Errorf("n=%d: eig cross-over %d, paper %d", r.costs.NQubits, eg, r.wantEig)
		}
	}
}

func TestAsymptoticCrossOver(t *testing.T) {
	if got := AsymptoticCrossOverSquaring(10, false); got != 20 {
		t.Errorf("standard asymptotic cross-over %v, want 2n", got)
	}
	got := AsymptoticCrossOverSquaring(10, true)
	if math.Abs(got-(math.Log2(7)-1)*10) > 1e-12 {
		t.Errorf("Strassen asymptotic cross-over %v", got)
	}
	if got >= 20 {
		t.Error("Strassen must lower the cross-over below 2n")
	}
}

func TestModelTermsPositive(t *testing.T) {
	m := Stampede()
	for n := uint(20); n <= 36; n += 4 {
		for _, p := range []int{1, 4, 64} {
			if m.TFFT(n, p) <= 0 || m.TQFT(n, p) <= 0 {
				t.Fatalf("non-positive model time at n=%d p=%d", n, p)
			}
		}
	}
}
