package perfmodel

import (
	"fmt"
	"math"
)

// Machine describes the hardware parameters entering Eqs. 5 and 6.
type Machine struct {
	Name string
	// FLOPSPeak is the per-node peak in FLOP/s.
	FLOPSPeak float64
	// EffFFT is the FFT efficiency (fraction of peak), 0.10-0.20 on the
	// paper's hardware.
	EffFFT float64
	// BMemNode is the per-node memory bandwidth in bytes/s.
	BMemNode float64
	// BNetNode is the per-node injection bandwidth in bytes/s; aggregate
	// bandwidth scales linearly with the node count.
	BNetNode float64
}

// Stampede returns parameters approximating a TACC Stampede node as used in
// the paper: 2x Xeon E5-2680 (~346 GF/s DP), ~40 GB/s effective memory
// bandwidth (the value the paper quotes), FDR InfiniBand at 56 Gb/s.
func Stampede() Machine {
	return Machine{
		Name:      "stampede",
		FLOPSPeak: 346e9,
		EffFFT:    0.06, // chosen so a 28-qubit node-local FFT achieves the paper's ~20 GF/s
		BMemNode:  40e9,
		BNetNode:  7e9, // 56 Gb/s
	}
}

// TFFT evaluates Eq. 5: the distributed FFT time for n qubits on p nodes,
//
//	T_FFT(n) = 5 N n / (Eff_FFT * FLOPS_peak) + 3 * 16 N / B_net,
//
// where N = 2^n, FLOPS_peak and B_net are aggregate over p nodes, and the
// 3 all-to-alls come from the three transposition steps. For p == 1 the
// communication term vanishes.
func (m Machine) TFFT(n uint, p int) float64 {
	N := math.Pow(2, float64(n))
	compute := 5 * N * float64(n) / (m.EffFFT * m.FLOPSPeak * float64(p))
	if p <= 1 {
		return compute
	}
	return compute + 3*16*N/(m.BNetNode*float64(p))
}

// TQFT evaluates Eq. 6: the simulated QFT time for n qubits on p nodes,
//
//	T_QFT(n) = 4 N n^2 / B_mem + log2(P) * 16 N / B_net,
//
// with B_mem and B_net aggregate over p nodes. The first term charges the
// n^2/2 controlled phase shifts at a quarter-state read+write each; the
// second charges one full-state exchange per Hadamard on a non-local qubit.
func (m Machine) TQFT(n uint, p int) float64 {
	N := math.Pow(2, float64(n))
	t := 4 * N * float64(n) * float64(n) / (m.BMemNode * float64(p))
	if p > 1 {
		t += math.Log2(float64(p)) * 16 * N / (m.BNetNode * float64(p))
	}
	return t
}

// SpeedupFFTvsQFT returns TQFT/TFFT, the predicted emulation speedup of
// Figure 3's right panel.
func (m Machine) SpeedupFFTvsQFT(n uint, p int) float64 {
	return m.TQFT(n, p) / m.TFFT(n, p)
}

// WeakScalingPoint is one row of the Figure 3 / Figure 4 model tables.
type WeakScalingPoint struct {
	Qubits  uint
	Nodes   int
	TFFT    float64
	TQFT    float64
	Speedup float64
}

// MaxWeakScalingSpan is the widest nMax - nMin WeakScaling takes: the
// node count 2^(n-nMin) must fit an int.
const MaxWeakScalingSpan = 62

// WeakScaling evaluates the models along the paper's weak-scaling line:
// qubits from nMin to nMax with 2^(n-nMin) nodes (constant per-node state).
// It panics when nMax - nMin exceeds MaxWeakScalingSpan.
func (m Machine) WeakScaling(nMin, nMax uint) []WeakScalingPoint {
	if nMax > nMin && nMax-nMin > MaxWeakScalingSpan {
		panic(fmt.Sprintf("perfmodel: weak-scaling span %d..%d needs 2^%d nodes, past an int (at most %d qubits of span)", nMin, nMax, nMax-nMin, MaxWeakScalingSpan))
	}
	var pts []WeakScalingPoint
	for n := nMin; n <= nMax; n++ {
		p := 1 << (n - nMin)
		pts = append(pts, WeakScalingPoint{
			Qubits:  n,
			Nodes:   p,
			TFFT:    m.TFFT(n, p),
			TQFT:    m.TQFT(n, p),
			Speedup: m.SpeedupFFTvsQFT(n, p),
		})
	}
	return pts
}

// QPECosts captures the measured per-step costs of Table 2 for one problem
// size, from which the cross-over precisions are derived.
type QPECosts struct {
	NQubits    uint
	Gates      int     // G, the gate count of one application of U
	TApply     float64 // seconds to apply U once with the simulator
	TConstruct float64 // seconds to build the dense 2^n x 2^n matrix of U
	TGemm      float64 // seconds for one dense matrix-matrix multiply
	TEig       float64 // seconds for one eigendecomposition
}

// simTime returns the simulator's cost for a b-bit QPE: U is applied
// 2^b - 1 times (Eq. 7's powers sum to 2^b - 1).
func (c QPECosts) simTime(b uint) float64 {
	return (math.Pow(2, float64(b)) - 1) * c.TApply
}

// squaringTime returns the emulator's repeated-squaring cost for b bits:
// one dense construction plus b-1 squarings (U^2 .. U^(2^(b-1))).
func (c QPECosts) squaringTime(b uint) float64 {
	if b == 0 {
		return c.TConstruct
	}
	return c.TConstruct + float64(b-1)*c.TGemm
}

// eigTime returns the emulator's eigendecomposition cost (independent of b).
func (c QPECosts) eigTime() float64 {
	return c.TConstruct + c.TEig
}

// CrossOverSquaring returns the smallest precision b (in bits) at which
// emulation by repeated squaring beats direct simulation, i.e. the lower
// panel of Table 2. The search is capped at 64 bits.
func (c QPECosts) CrossOverSquaring() uint {
	for b := uint(1); b <= 64; b++ {
		if c.squaringTime(b) < c.simTime(b) {
			return b
		}
	}
	return 64
}

// CrossOverEig returns the smallest precision b at which emulation via
// eigendecomposition beats direct simulation.
func (c QPECosts) CrossOverEig() uint {
	for b := uint(1); b <= 64; b++ {
		if c.eigTime() < c.simTime(b) {
			return b
		}
	}
	return 64
}

// AsymptoticCrossOverSquaring returns the paper's asymptotic prediction:
// repeated squaring wins when b >= 2n (standard GEMM) or b > ~1.8n
// (Strassen), ignoring constant factors.
func AsymptoticCrossOverSquaring(n uint, strassen bool) float64 {
	if strassen {
		return (math.Log2(7) - 1) * float64(n)
	}
	return 2 * float64(n)
}
