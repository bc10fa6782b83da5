// Benchmarks regenerating every figure and table of the paper's evaluation
// (run `go test -bench=. -benchmem`), plus ablation benches for the design
// choices DESIGN.md calls out. The qemu-bench command prints the same
// content as formatted tables with paper-style sweeps; these benches give
// the per-operation numbers under the standard Go harness.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fft"
	"repro/internal/fuse"
	"repro/internal/gates"
	"repro/internal/ising"
	"repro/internal/linalg"
	"repro/internal/qft"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/statevec"
)

// --- Figure 1: multiplication ----------------------------------------------

func BenchmarkFig1MultiplySimulation(b *testing.B) {
	for _, m := range []uint{3, 4, 5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			l := revlib.NewMultiplierLayout(m)
			circ := revlib.BuildMultiplier(l)
			st := superposed(l.NumQubits(), 2*m)
			work := st.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(st)
				sim.Wrap(work, sim.DefaultOptions()).Run(circ)
			}
		})
	}
}

func BenchmarkFig1MultiplyEmulation(b *testing.B) {
	for _, m := range []uint{3, 4, 5, 7} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			l := revlib.NewMultiplierLayout(m)
			st := superposed(l.NumQubits(), 2*m)
			work := st.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(st)
				core.Wrap(work).Multiply(0, m, 2*m, m)
			}
		})
	}
}

// --- Figure 2: division ------------------------------------------------------

func BenchmarkFig2DivideSimulation(b *testing.B) {
	for _, m := range []uint{2, 3, 4} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			l := revlib.NewDividerLayout(m)
			circ := revlib.BuildDivider(l)
			st := superposed(l.NumQubits(), m) // dividend register
			work := st.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(st)
				sim.Wrap(work, sim.DefaultOptions()).Run(circ)
			}
		})
	}
}

func BenchmarkFig2DivideEmulation(b *testing.B) {
	for _, m := range []uint{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			l := revlib.NewDividerLayout(m)
			st := superposed(l.NumQubits(), m)
			work := st.Clone()
			layout := core.DivideLayout{M: m, RPos: 0, BPos: 2 * m, QPos: 3 * m}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(st)
				core.Wrap(work).Divide(layout)
			}
		})
	}
}

// --- Figure 3: distributed QFT simulation vs FFT emulation -----------------

func BenchmarkFig3QFTSimulationCluster(b *testing.B) {
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCluster(b, p, true, func(c *cluster.Cluster, circ *circuit.Circuit) {
				c.Run(circ)
			})
		})
	}
}

func BenchmarkFig3FFTEmulationCluster(b *testing.B) {
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCluster(b, p, true, func(c *cluster.Cluster, _ *circuit.Circuit) {
				if err := c.EmulateQFT(); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// --- Figure 4: diagonal-gate communication optimisation --------------------

func BenchmarkFig4OurSimulatorCluster(b *testing.B) {
	benchCluster(b, 8, true, func(c *cluster.Cluster, circ *circuit.Circuit) { c.Run(circ) })
}

func BenchmarkFig4QHipsterClassCluster(b *testing.B) {
	benchCluster(b, 8, false, func(c *cluster.Cluster, circ *circuit.Circuit) { c.Run(circ) })
}

// --- Figure 5: single-node QFT across back-ends -----------------------------

func BenchmarkFig5QFT(b *testing.B) {
	const n = 16
	circ := qft.Circuit(n)
	init := statevec.NewRandom(n, rng.New(5))
	run := func(b *testing.B, backend func(*statevec.State) circuit.Runner) {
		work := init.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			work.CopyFrom(init)
			circ.Run(backend(work))
		}
	}
	b.Run("ours", func(b *testing.B) {
		run(b, func(s *statevec.State) circuit.Runner { return sim.Wrap(s, sim.DefaultOptions()) })
	})
	b.Run("qhipster-class", func(b *testing.B) {
		run(b, func(s *statevec.State) circuit.Runner { return sim.WrapGeneric(s) })
	})
	b.Run("liquid-class", func(b *testing.B) {
		run(b, func(s *statevec.State) circuit.Runner { return sim.WrapSparseMatrix(s) })
	})
}

// --- Figure 6: entangling operation across back-ends ------------------------

func BenchmarkFig6Entangler(b *testing.B) {
	const n = 18
	circ := qft.Entangler(n)
	init := statevec.NewRandom(n, rng.New(6))
	run := func(b *testing.B, backend func(*statevec.State) circuit.Runner) {
		work := init.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			work.CopyFrom(init)
			circ.Run(backend(work))
		}
	}
	b.Run("ours", func(b *testing.B) {
		run(b, func(s *statevec.State) circuit.Runner { return sim.Wrap(s, sim.DefaultOptions()) })
	})
	b.Run("qhipster-class", func(b *testing.B) {
		run(b, func(s *statevec.State) circuit.Runner { return sim.WrapGeneric(s) })
	})
	b.Run("liquid-class", func(b *testing.B) {
		run(b, func(s *statevec.State) circuit.Runner { return sim.WrapSparseMatrix(s) })
	})
}

// --- Table 2: QPE cost components -------------------------------------------

func BenchmarkTable2ApplyU(b *testing.B) {
	for _, n := range []uint{8, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			circ := ising.TrotterStep(n, ising.DefaultParams())
			st := statevec.NewRandom(n, rng.New(7))
			backend := sim.Wrap(st, sim.DefaultOptions())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				backend.Run(circ)
			}
		})
	}
}

func BenchmarkTable2ConstructDenseU(b *testing.B) {
	for _, n := range []uint{6, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			circ := ising.TrotterStep(n, ising.DefaultParams())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sim.DenseUnitary(circ)
			}
		})
	}
}

func BenchmarkTable2Gemm(b *testing.B) {
	for _, n := range []uint{6, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			u := sim.DenseUnitary(ising.TrotterStep(n, ising.DefaultParams()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = u.Mul(u)
			}
		})
	}
}

func BenchmarkTable2Strassen(b *testing.B) {
	for _, n := range []uint{6, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			u := sim.DenseUnitary(ising.TrotterStep(n, ising.DefaultParams()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = u.Strassen(u)
			}
		})
	}
}

func BenchmarkTable2Eigendecomposition(b *testing.B) {
	for _, n := range []uint{6, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			u := sim.DenseUnitary(ising.TrotterStep(n, ising.DefaultParams()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := linalg.Eig(u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Section 3.4: measurement shortcut --------------------------------------

func BenchmarkMeasureExactExpectation(b *testing.B) {
	st := statevec.NewRandom(18, rng.New(8))
	obs := func(i uint64) float64 { return float64(i % 7) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.ExpectationDiagonal(obs)
	}
}

func BenchmarkMeasureSampledExpectation(b *testing.B) {
	st := statevec.NewRandom(18, rng.New(8))
	obs := func(i uint64) float64 { return float64(i % 7) }
	src := rng.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = st.EstimateDiagonal(obs, 10000, src)
	}
}

// --- Ablations ---------------------------------------------------------------

func BenchmarkAblationKernelSpecialization(b *testing.B) {
	const n = 16
	circ := qft.Circuit(n)
	init := statevec.NewRandom(n, rng.New(10))
	for _, spec := range []bool{true, false} {
		b.Run(fmt.Sprintf("specialize=%v", spec), func(b *testing.B) {
			work := init.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(init)
				sim.Wrap(work, sim.Options{Specialize: spec}).Run(circ)
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
	for _, fuse := range []bool{true, false} {
		b.Run(fmt.Sprintf("fuse=%v", fuse), func(b *testing.B) {
			work := init.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(init)
				sim.Wrap(work, sim.Options{Specialize: true, Fuse: fuse}).Run(circ)
			}
		})
	}
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
	u := sim.DenseUnitary(ising.TrotterStep(8, ising.DefaultParams()))
	psi := make([]complex128, 1<<8)
	psi[0] = 1
	for _, mode := range []core.Mode{core.RepeatedSquaring, core.RepeatedSquaringStrassen} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.QPE(u, psi, 4, mode); err != nil {
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
				sim.Wrap(work, sim.DefaultOptions()).Run(cfg.c)
			}
		})
	}
}

// --- Multi-qubit gate fusion -------------------------------------------------
//
// The fusion benches compare, on deep >= 20-qubit circuits, gate-by-gate
// execution (nofuse), the paper's same-target single-qubit fusion (fuse1)
// and the internal/fuse block scheduler at widths 2..5. The acceptance
// target is width >= 3 beating fuse1 on deep single/two-qubit circuits;
// planning cost is included (Run plans on every call).

// benchFusionModes runs circ under every fusion configuration.
func benchFusionModes(b *testing.B, circ *circuit.Circuit, n uint) {
	b.Helper()
	init := statevec.NewRandom(n, rng.New(2016))
	modes := []struct {
		name string
		opts sim.Options
	}{
		{"nofuse", sim.Options{Specialize: true}},
		{"fuse1", sim.DefaultOptions()},
		{"fuse-w2", sim.WideFusionOptions(2)},
		{"fuse-w3", sim.WideFusionOptions(3)},
		{"fuse-w4", sim.WideFusionOptions(4)},
		{"fuse-w5", sim.WideFusionOptions(5)},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			work := init.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(init)
				sim.Wrap(work, m.opts).Run(circ)
			}
		})
	}
}

func BenchmarkFusionDeepQFT(b *testing.B) {
	const n = 20
	benchFusionModes(b, experiments.DeepQFT(n, 3), n) // 630 gates
}

func BenchmarkFusionBrickwork(b *testing.B) {
	const n = 20
	benchFusionModes(b, experiments.Brickwork(n, 16, 42), n) // ~950 gates
}

func BenchmarkFusionTiledAnsatz(b *testing.B) {
	const n = 20
	benchFusionModes(b, experiments.TiledAnsatz(n, 4, 3, 3, 44), n) // ~600 gates
}

func BenchmarkFusionRandom(b *testing.B) {
	const n = 20
	benchFusionModes(b, experiments.RandomCircuit(n, 600, 43), n)
}

func BenchmarkFusionGrover(b *testing.B) {
	const n = 20
	benchFusionModes(b, experiments.GroverGateLevel(n, 0xB2C5A, 6), n) // ~630 gates
}

// BenchmarkFusionPlanning isolates the scheduler cost Run pays per call.
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

func BenchmarkMathFuncEmulation(b *testing.B) {
	// Section 3.1 extension: emulated fixed-point sin oracle.
	const m = 10
	st := superposed(2*m, m)
	em := core.Wrap(st)
	f := func(a uint64) uint64 { return (a*a + 3) & ((1 << m) - 1) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.ApplyUnaryFunc(0, m, m, m, f)
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
	bump := func(field, rest uint64) uint64 { return (field + ((rest >> 16) & mask) + 1) & mask }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Probability(0)
		st.Collapse(0, 1)
		st.MapRegister(8, 8, bump)
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

func benchCluster(b *testing.B, p int, diag bool, run func(*cluster.Cluster, *circuit.Circuit)) {
	b.Helper()
	local := uint(12)
	n := local
	for q := 1; q < p; q *= 2 {
		n++
	}
	circ := qft.CircuitNoSwap(n)
	init := statevec.NewRandom(n, rng.New(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := cluster.New(n, p)
		if err != nil {
			b.Fatal(err)
		}
		c.DiagonalOptimization = diag
		if err := c.LoadState(init); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		run(c, circ)
	}
}
