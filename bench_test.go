// Ablation and engine benchmarks under the standard Go harness (run
// `go test -bench=. -benchmem`): the design choices the paper's ablations
// call out, cold compiles, and the non-gate hot paths. The paper's figures
// and tables have one implementation each, in internal/experiments, printed
// by the qemu-bench command.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/experiments"
	"repro/internal/fft"
	"repro/internal/fuse"
	"repro/internal/gates"
	"repro/internal/ising"
	"repro/internal/qft"
	"repro/internal/qpe"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// --- Ablations ---------------------------------------------------------------

func BenchmarkAblationKernelSpecialization(b *testing.B) {
	const n = 16
	circ := qft.Circuit(n)
	init := statevec.NewRandom(n, rng.New(10))
	for _, spec := range []bool{true, false} {
		b.Run(fmt.Sprintf("specialize=%v", spec), func(b *testing.B) {
			work := init.Clone()
			apply := work.ApplyGate
			if !spec {
				apply = work.ApplyGateGeneric
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(init)
				for _, g := range circ.Gates {
					apply(g)
				}
			}
		})
	}
}

func BenchmarkAblationGateFusion(b *testing.B) {
	const n = 16
	// Fusion-heavy circuit: runs of single-qubit gates on each target.
	circ := circuit.New(n)
	for r := 0; r < 4; r++ {
		for q := uint(0); q < n; q++ {
			circ.Append(gates.H(q), gates.T(q), gates.S(q), gates.H(q))
		}
	}
	init := statevec.NewRandom(n, rng.New(11))
	b.Run("fuse=true", func(b *testing.B) {
		// The paper's same-target fusion: a width-1 plan, compiled once.
		eng, err := backend.New(backend.Target{NumQubits: n, Kind: backend.Fused})
		if err != nil {
			b.Fatal(err)
		}
		x, err := backend.Compile(circ, eng.Target())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.State().CopyFrom(init)
			if _, err := eng.Run(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fuse=false", func(b *testing.B) {
		work := init.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			work.CopyFrom(init)
			circ.Run(work)
		}
	})
}

func BenchmarkAblationFFTAlgorithm(b *testing.B) {
	const n = 18
	src := rng.New(12)
	data := make([]complex128, 1<<n)
	for i := range data {
		data[i] = src.Complex()
	}
	b.Run("radix2", func(b *testing.B) {
		plan, _ := fft.NewPlan(1 << n)
		work := make([]complex128, len(data))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(work, data)
			plan.Forward(work)
		}
	})
	b.Run("fourstep", func(b *testing.B) {
		work := make([]complex128, len(data))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(work, data)
			if err := fft.FourStep(work, +1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationQPESquaringVsStrassen(b *testing.B) {
	u := qpe.DenseUnitary(ising.TrotterStep(8, ising.DefaultParams()))
	psi := make([]complex128, 1<<8)
	psi[0] = 1
	for _, mode := range []qpe.Mode{qpe.RepeatedSquaring, qpe.RepeatedSquaringStrassen} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := qpe.QPE(u, psi, 4, mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationCircuitLowering(b *testing.B) {
	// The multiplier uses multi-controlled gates natively; lowering to the
	// 1-2 qubit universal set (the paper's Section 2 setting) trades gate
	// count for gate simplicity. Both must run, at different cost.
	const m = 4
	l := revlib.NewMultiplierLayout(m)
	native := revlib.BuildMultiplier(l)
	lowered := native.Lower(2)
	init := superposed(l.NumQubits(), 2*m)
	for _, cfg := range []struct {
		name string
		c    *circuit.Circuit
	}{{"native-multicontrol", native}, {"lowered-to-2q", lowered}} {
		b.Run(fmt.Sprintf("%s/gates=%d", cfg.name, cfg.c.Len()), func(b *testing.B) {
			work := init.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(init)
				cfg.c.Run(work)
			}
		})
	}
}

// BenchmarkFusionPlanning isolates the scheduler cost Compile pays per
// gate segment.
func BenchmarkFusionPlanning(b *testing.B) {
	circ := experiments.Brickwork(24, 16, 42)
	b.Run(fmt.Sprintf("gates=%d/w4", circ.Len()), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fuse.New(circ, 4)
		}
	})
}

// BenchmarkCompileAuto is the cold-compile witness of the auto target:
// profile (every candidate width priced by fuse's cost-only scheduler),
// select, then one materialised fusion plan per gate segment. B/op is the
// number to watch — a planner that multiplies out candidate runs it then
// discards shows up as a 1 MiB matrix per 8-wide run.
func BenchmarkCompileAuto(b *testing.B) {
	for _, w := range experiments.CompileAutoWorkloads() {
		b.Run(fmt.Sprintf("%s/gates=%d", w.Name, w.Circuit.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := backend.Compile(w.Circuit, backend.Target{Auto: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Measurement / permutation engine ---------------------------------------
//
// The execution-engine benches exercise the non-gate hot paths: probability
// reads, collapses and basis-state permutations, which Shor-style and Monte
// Carlo workloads hit between every block of gates. ApplyPermutation must
// report zero allocations per op (the state swaps with its scratch buffer).

func BenchmarkMeasurePermutationPipeline(b *testing.B) {
	const n = 22
	st := statevec.NewRandom(n, rng.New(14))
	// Make qubit 0 deterministic so the repeated collapse below stays valid.
	st.Collapse(0, 1)
	const mask = uint64(1)<<8 - 1
	// The byte at bit 8 takes the byte at bit 16 plus one: a bijection of the
	// field for every setting of the rest, so a permutation of the register.
	bump := func(i uint64) uint64 {
		field := (i>>8 + i>>16 + 1) & mask
		return i&^(mask<<8) | field<<8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Probability(0)
		st.Collapse(0, 1)
		st.ApplyPermutation(bump)
	}
}

func BenchmarkApplyPermutation(b *testing.B) {
	const n = 22
	st := statevec.NewRandom(n, rng.New(15))
	mask := st.Dim() - 1
	rot := func(i uint64) uint64 { return (i + 12345) & mask }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ApplyPermutation(rot)
	}
}

func BenchmarkReductions(b *testing.B) {
	const n = 22
	st := statevec.NewRandom(n, rng.New(16))
	other := statevec.NewRandom(n, rng.New(17))
	b.Run("Norm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = st.Norm()
		}
	})
	b.Run("Inner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = st.Inner(other)
		}
	})
	b.Run("ExpectationDiagonal", func(b *testing.B) {
		obs := func(i uint64) float64 { return float64(i & 255) }
		for i := 0; i < b.N; i++ {
			_ = st.ExpectationDiagonal(obs)
		}
	})
	b.Run("SampleMany", func(b *testing.B) {
		src := rng.New(18)
		for i := 0; i < b.N; i++ {
			_ = st.SampleMany(1000, src)
		}
	})
}

// --- helpers -----------------------------------------------------------------

// superposed returns an n-qubit state with Hadamards on the low h qubits.
func superposed(n, h uint) *statevec.State {
	st := statevec.New(n)
	for q := uint(0); q < h; q++ {
		st.ApplyGate(gates.H(q))
	}
	return st
}
