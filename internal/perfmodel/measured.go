package perfmodel

import "math"

// Measured is the calibrated half of the performance model: per-amplitude
// kernel costs in nanoseconds, the same role Eqs. 5 and 6 play analytically
// but anchored to this machine's statevec/fft/cluster kernels instead of
// Stampede's datasheet. The unit convention follows internal/fuse: one
// "sweep" is a full pass over the 2^n-amplitude state by the dense 2x2
// kernel, so SweepNs is the ns-per-amplitude price of fuse's sweep unit and
// every fuse cost estimate converts to seconds by multiplying with
// 2^n * SweepNs.
//
// Absolute values vary box to box; the backend selector only needs the
// ratios to be right, which is why the baked-in Default constants are a
// usable fallback when no calibration has run (see calibrate.go).
type Measured struct {
	// Source records where the constants came from: "default" for the
	// baked-in reference values, "calibrated" for a micro-benchmark run.
	Source string `json:"source"`
	// SweepNs is ns per amplitude of one dense 2x2 full-state sweep
	// (statevec.ApplyMatrix2 via the specialised kernels) — fuse's 1.0.
	SweepNs float64 `json:"sweep_ns"`
	// DiagNs is ns per amplitude of a diagonal sweep (phase kernels,
	// ApplyDiagN, ApplyDiagTable).
	DiagNs float64 `json:"diag_ns"`
	// PermNs is ns per amplitude of a basis-state permutation
	// (gather/scatter through the scratch buffer) — the arithmetic
	// emulation substrate.
	PermNs float64 `json:"perm_ns"`
	// FFTNs is ns per amplitude per log2(size) of the classical FFT —
	// the QFT emulation substrate costs 2^n * w * FFTNs for a width-w
	// field transform over the full state.
	FFTNs float64 `json:"fft_ns"`
	// GenericNs is ns per amplitude of the structure-blind dense 2x2
	// kernel (the qHiPSTER-class baseline).
	GenericNs float64 `json:"generic_ns"`
	// SparseNs is ns per touched amplitude of the sparse matrix-product
	// baseline (the LIQUi|>-class path).
	SparseNs float64 `json:"sparse_ns"`
	// RemapNs is ns per amplitude of one cluster all-to-all round (remap
	// or transpose) on the emulated distributed engine.
	RemapNs float64 `json:"remap_ns"`
}

// Default returns the baked-in reference constants, calibrated once on a
// multi-core x86-64 box with the default parallel kernels. They are the
// model of record for the deterministic selection tests and the fallback
// when no calibration cache exists; only their ratios matter to the
// selector.
//
// FFTNs follows fft's BenchmarkFFTStages (n = 20, two workers, the
// AVX2/FMA butterflies): the natural-order unitary transform runs at
// 6.1-6.7 ns per amplitude, 0.30-0.34 per stage, beside a 0.92-1.1 ns
// Hadamard sweep. It was 0.7 while the transform measured 1.1-1.6 per
// stage (ISSUE 18).
func Default() Measured {
	return Measured{
		Source:    "default",
		SweepNs:   1.0,
		DiagNs:    0.45,
		PermNs:    1.6,
		FFTNs:     0.33,
		GenericNs: 1.9,
		SparseNs:  24,
		RemapNs:   2.6,
	}
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

// GenericGateSecs is the cost of one gate through the structure-blind
// dense kernel.
func (m Measured) GenericGateSecs(n uint) float64 { return amps(n) * m.GenericNs * 1e-9 }

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
// n qubits across p nodes (three all-to-all transposes when distributed).
func (m Measured) TFFT(n uint, p int) float64 {
	t := m.FFTSecs(n, n)
	if p > 1 {
		t += 3 * m.RemapSecs(n)
	}
	return t
}
