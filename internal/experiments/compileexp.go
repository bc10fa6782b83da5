package experiments

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/revlib"
	"repro/internal/rng"
)

// CompileWorkload is one named circuit of the auto-target witnesses: the
// compile benchmarks here and the auto sweep of autoexp.go.
type CompileWorkload struct {
	Name    string
	Circuit *circuit.Circuit
}

// CompileAutoWorkloads returns the three circuits BenchmarkCompileAuto and
// the backend allocation-budget test compile on the auto target, chosen to
// cover where cold-compile time goes: a small noisy register whose
// recognised regions fall back to gate level at every strike, a mid-size
// arithmetic/QFT sandwich whose gate segments fill 8-wide candidate runs,
// and the 20-qubit mostly-emulated mix whose chosen target is a narrow
// fused one. All three are deterministic.
func CompileAutoWorkloads() []CompileWorkload {
	noisy := noiseWorkload(8, 2) // 224 gates
	noisy.SetGlobalNoise(circuit.Channel{Kind: circuit.Depolarizing, P: 1e-3})
	return []CompileWorkload{
		{"noisy-n8", noisy},
		{"adder-qft-n14", adderQFTSandwich(14, 3)},
		{"emulate-mix-n20", emulateMix(20, 4)},
	}
}

// rotationLayer appends one random-axis rotation per qubit.
func rotationLayer(c *circuit.Circuit, src *rng.Source) {
	for q := uint(0); q < c.NumQubits; q++ {
		theta := src.Float64() * math.Pi
		switch src.Intn(3) {
		case 0:
			c.Append(gates.Rx(q, theta))
		case 1:
			c.Append(gates.Ry(q, theta))
		default:
			c.Append(gates.Rz(q, theta))
		}
	}
}

// phaseRun appends count random CR/Rz gates over qubits [0, width).
func phaseRun(c *circuit.Circuit, src *rng.Source, width uint, count int) {
	for i := 0; i < count; i++ {
		a := uint(src.Intn(int(width)))
		b := uint(src.Intn(int(width)))
		if a == b {
			c.Append(gates.Rz(a, src.Float64()*math.Pi))
			continue
		}
		c.Append(gates.CR(a, b, src.Float64()*math.Pi))
	}
}

// adderQFTSandwich interleaves unrecognisable rotation layers with a
// ripple adder, its subtractor, a QFT, a phase run and the inverse QFT.
func adderQFTSandwich(n uint, seed uint64) *circuit.Circuit {
	src := rng.New(seed)
	c := circuit.New(n)
	w := (n - 1) / 2
	a, b := revlib.Seq(0, w), revlib.Seq(w, w)
	rotationLayer(c, src)
	revlib.Adder(c, a, b, 2*w)
	rotationLayer(c, src)
	c.Extend(qft.Circuit(n))
	phaseRun(c, src, n, 2*int(n))
	rotationLayer(c, src)
	c.Extend(qft.InverseCircuit(n))
	rotationLayer(c, src)
	revlib.Subtractor(c, a, b, 2*w)
	return c
}

// emulateMix is the paper's headline path in one circuit: H^n and two
// annotated Grover iterations, then a ripple adder, a phase run and a QFT
// and its inverse, with thin rotation layers in between.
func emulateMix(n uint, seed uint64) *circuit.Circuit {
	src := rng.New(seed)
	c := GroverGateLevel(n, src.Uint64n(uint64(1)<<n), 2)
	rotationLayer(c, src)
	w := (n - 1) / 2
	revlib.Adder(c, revlib.Seq(0, w), revlib.Seq(w, w), 2*w)
	phaseRun(c, src, 14, 3*int(n))
	c.Extend(qft.Circuit(n))
	rotationLayer(c, src)
	c.Extend(qft.InverseCircuit(n))
	return c
}
