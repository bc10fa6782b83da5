package perfmodel

import (
	"math"
	"time"
)

// Measured is the measured half of the performance model: per-amplitude
// kernel costs in nanoseconds, the same role Eqs. 5 and 6 play analytically
// but anchored to the repository's statevec/fft/cluster kernels instead of
// Stampede's datasheet. The unit convention follows internal/fuse: one
// "sweep" is a full pass over the 2^n-amplitude state by the dense 2x2
// kernel, so SweepNs is the ns-per-amplitude price of fuse's sweep unit and
// every fuse cost estimate converts to seconds by multiplying with
// 2^n * SweepNs.
//
// Absolute values vary box to box; the backend selector only needs the
// ratios to be right, so one table (Active) serves every host and a
// selection depends on the circuit alone.
type Measured struct {
	// SweepNs is ns per amplitude of one dense 2x2 full-state sweep
	// (ApplyGate of an uncontrolled Rx: ApplyControlledMatrix2 with no
	// controls) — fuse's 1.0.
	SweepNs float64
	// DiagNs is ns per amplitude of a diagonal sweep (phase kernels,
	// ApplyDiagN, ApplyDiagTable).
	DiagNs float64
	// PermNs is ns per amplitude of a basis-state permutation
	// (gather/scatter through the scratch buffer) — the arithmetic
	// emulation substrate.
	PermNs float64
	// FFTNs is ns per amplitude per log2(size) of the classical FFT —
	// the QFT emulation substrate costs 2^n * w * FFTNs for a width-w
	// field transform over the full state.
	FFTNs float64
	// RemapNs is ns per amplitude of one cluster all-to-all round (a
	// placement remap) on the emulated distributed engine.
	RemapNs float64
	// FillNs is ns per written amplitude of the product state fill a
	// fresh register starts a gate unit's product prefix with
	// (statevec.FillProduct).
	FillNs float64
}

// Active returns the constants the backend selector prices candidates
// with: one table on every host, so a fingerprint names the same artifact
// wherever it was compiled. They were measured once on a multi-core x86-64
// box with the default parallel kernels; only their ratios matter to the
// selector.
//
// FFTNs follows fft's BenchmarkFFTStages (n = 20, two workers, the
// AVX2/FMA butterflies): the natural-order unitary transform ran at
// 6.1-6.7 ns per amplitude, 0.30-0.34 per stage, beside a 0.92-1.1 ns
// Hadamard sweep. It was 0.7 while the transform measured 1.1-1.6 per
// stage. Re-taken after the radix-4 head got its vector body, on a host
// where the Hadamard sweep read 1.4 ns: the transform reads 7.2-7.6 ns
// per amplitude, 0.36-0.38 per stage (10.2-15.0 before it in the same
// session). The price is left at 0.33, so the auto choice and the pinned
// selections stay as they were; pricing a transform as it runs now —
// without its reordering pass where the placement carries the order —
// is ROADMAP item 3. On a host with the AVX-512 butterflies (radix-8
// groups at spans of four or more on ZMM), the same row read 5.5 ns per
// amplitude, 0.27 per stage, against 7.0 (0.35) on the AVX2 body and a
// 0.77 ns same-worker copy in the same run; the ReversedOut network alone
// read 2.7 against 3.6. The price stays 0.33 on every host: it feeds the
// auto selector's verdicts, which a host's instruction set must not move.
//
// FillNs follows cluster's BenchmarkMoveBits product-fill rows (n = 20,
// two workers, gate-sweep's three straddling clusters): 1.9-2.7 ns per
// amplitude beside 2.3-3.9 for a dense one-qubit sweep, so 0.8 of SweepNs.
func Active() Measured {
	return Measured{
		SweepNs: 1.0,
		DiagNs:  0.45,
		PermNs:  1.6,
		FFTNs:   0.33,
		RemapNs: 2.6,
		FillNs:  0.8,
	}
}

// Clock starts a wall clock and returns its reading: the one clock of the
// deterministic engine packages, whose reports (backend.Result.Wall,
// noise.Result.Wall) it times. The detrng analyzer bans any other there.
func Clock() (elapsed func() time.Duration) {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// amps returns 2^n as a float.
func amps(n uint) float64 { return math.Pow(2, float64(n)) }

// SweepSecs converts a fuse sweep-unit estimate on an n-qubit register to
// seconds.
func (m Measured) SweepSecs(units float64, n uint) float64 {
	return units * amps(n) * m.SweepNs * 1e-9
}

// FFTSecs is the cost of emulating one Fourier transform of a width-w
// field on an n-qubit register: every amplitude passes through w butterfly
// levels.
func (m Measured) FFTSecs(n, w uint) float64 {
	return amps(n) * float64(w) * m.FFTNs * 1e-9
}

// PermSecs is the cost of one emulated basis permutation (the arithmetic
// shortcuts) over the full state.
func (m Measured) PermSecs(n uint) float64 { return amps(n) * m.PermNs * 1e-9 }

// DiagSecs is the cost of one diagonal sweep over the full state.
func (m Measured) DiagSecs(n uint) float64 { return amps(n) * m.DiagNs * 1e-9 }

// RemapSecs is the cost of one all-to-all communication round on the
// emulated cluster.
func (m Measured) RemapSecs(n uint) float64 { return amps(n) * m.RemapNs * 1e-9 }

// FillSecs is the cost of a product state fill whose clusters cover
// `qubits` qubits: it writes the 2^qubits amplitudes they make nonzero.
func (m Measured) FillSecs(qubits uint) float64 { return amps(qubits) * m.FillNs * 1e-9 }

// TQFT is the measured-model analogue of Eq. 6: gate-level QFT on n
// qubits across p (emulated) nodes. The n(n+1)/2 gates are almost all
// controlled phase shifts (diagonal sweeps at the controlled discount);
// distribution adds log2(p) exchange rounds. Unlike the analytic Eq. 6,
// p does not divide the compute term: the emulated cluster splits this
// machine's cores across shards, so total work is conserved.
func (m Measured) TQFT(n uint, p int) float64 {
	gatesecs := float64(n) * float64(n+1) / 2 * 0.6 * m.DiagSecs(n)
	if p > 1 {
		gatesecs += math.Log2(float64(p)) * m.RemapSecs(n)
	}
	return gatesecs
}

// TFFT is the measured-model analogue of Eq. 5: the emulated transform on
// n qubits across p nodes. Distributed, it pays two all-to-all remaps,
// which move only the node bits; Eq. 5's third all-to-all is the
// canonicalization of the output order, paid by whatever next reads the
// state in canonical order, not by the transform.
func (m Measured) TFFT(n uint, p int) float64 {
	t := m.FFTSecs(n, n)
	if p > 1 {
		t += 2 * m.RemapSecs(n)
	}
	return t
}
