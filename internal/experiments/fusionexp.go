package experiments

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/fuse"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// DeepQFT repeats the n-qubit QFT r times back to back — a deep circuit of
// r*n(n+1)/2 gates dominated by the diagonal controlled-phase tail.
func DeepQFT(n uint, r int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < r; i++ {
		c.Extend(qft.Circuit(n))
	}
	return c
}

// Brickwork builds the standard hardware-efficient ansatz: layers of random
// single-qubit rotations on every qubit followed by a brick pattern of
// nearest-neighbour CNOTs. Dense, local and fusion-friendly — the shape
// variational and supremacy-style circuits take.
func Brickwork(n uint, layers int, seed uint64) *circuit.Circuit {
	src := rng.New(seed)
	c := circuit.New(n)
	for l := 0; l < layers; l++ {
		for q := uint(0); q < n; q++ {
			c.Append(gates.Rx(q, src.Float64()*math.Pi))
			c.Append(gates.Rz(q, src.Float64()*math.Pi))
		}
		start := uint(l % 2)
		for q := start; q+1 < n; q += 2 {
			c.Append(gates.CNOT(q, q+1))
		}
	}
	return c
}

// TiledAnsatz builds a hardware-efficient variational ansatz processed
// tile by tile, the EfficientSU2-with-block-entanglement shape: for each
// window of `tile` adjacent qubits, `reps` rounds of per-qubit Ry/Rz
// rotations followed by a CNOT chain across the window, the window then
// advancing by tile-1 qubits so neighbouring tiles overlap by one and
// entanglement spreads. Long runs on a small working set make this the
// workload where wide fusion blocks pay off most.
func TiledAnsatz(n, tile uint, reps, passes int, seed uint64) *circuit.Circuit {
	if tile < 2 {
		tile = 2
	}
	src := rng.New(seed)
	c := circuit.New(n)
	for p := 0; p < passes; p++ {
		for lo := uint(0); lo+tile <= n; lo += tile - 1 {
			for r := 0; r < reps; r++ {
				for q := lo; q < lo+tile; q++ {
					c.Append(gates.Ry(q, src.Float64()*math.Pi))
					c.Append(gates.Rz(q, src.Float64()*math.Pi))
				}
				for q := lo; q+1 < lo+tile; q++ {
					c.Append(gates.CNOT(q, q+1))
				}
			}
		}
	}
	return c
}

// The three circuits below rebuild workloads of the benchmark
// (benchmark/gen.go — a module of its own, so it cannot be imported) for
// the tests that pin what its per-layer counters read. Which gate sits
// where comes from the benchmark's fixed shape streams and only the
// angles from seed, so plans and communication schedules are the
// benchmark's whatever the seed.

// benchStream is the benchmark's per-(seed, purpose) random stream.
func benchStream(seed uint64, purpose string) *rng.Source {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rng.New(seed*0x9e3779b97f4a7c15 ^ h.Sum64())
}

// benchAngle is the benchmark's rotation angle: away from 0 and 2π, so no
// rotation collapses to the identity.
func benchAngle(src *rng.Source) float64 {
	return 0.1 + src.Float64()*(2*math.Pi-0.2)
}

// benchRotationLayer appends one rotation per qubit: axis from shape,
// angle from src.
func benchRotationLayer(c *circuit.Circuit, shape, src *rng.Source) {
	for q := uint(0); q < c.NumQubits; q++ {
		theta := benchAngle(src)
		switch shape.Intn(3) {
		case 0:
			c.Append(gates.Rx(q, theta))
		case 1:
			c.Append(gates.Ry(q, theta))
		default:
			c.Append(gates.Rz(q, theta))
		}
	}
}

// benchEntangler is CNOT or CZ on (a, b), drawn from shape.
func benchEntangler(shape *rng.Source, a, b uint) gates.Gate {
	if shape.Intn(2) == 0 {
		return gates.CNOT(a, b)
	}
	return gates.CZ(a, b)
}

// GateSweep is the gate-sweep workload's circuit (genGateSweep): layers
// of one random rotation per qubit followed by CNOT/CZ between the low and
// the high half of the register under a random bijection. The benchmark
// runs GateSweep(20, 10, seed) at Fused w=4.
func GateSweep(n uint, layers int, seed uint64) *circuit.Circuit {
	shape, src := benchStream(1, "gate-sweep-shape"), benchStream(seed, "gate-sweep")
	c := circuit.New(n)
	half := int(n) / 2
	for l := 0; l < layers; l++ {
		benchRotationLayer(c, shape, src)
		for lo, hi := range shape.Perm(half) {
			a, b := uint(lo), uint(half+hi)
			if shape.Intn(2) == 0 {
				a, b = b, a
			}
			c.Append(benchEntangler(shape, a, b))
		}
	}
	return c
}

// ClusterShard is the cluster-shard workload's circuit (genClusterShard):
// brickwork — rotation layers with CNOT/CZ on neighbouring pairs in
// alternating offsets — followed by a full-register QFT. The benchmark
// runs ClusterShard(20, 6, seed) on 4 nodes at w=4 with emulation on.
func ClusterShard(n uint, layers int, seed uint64) *circuit.Circuit {
	shape, src := benchStream(1, "cluster-shard-shape"), benchStream(seed, "cluster-shard")
	c := circuit.New(n)
	for l := 0; l < layers; l++ {
		benchRotationLayer(c, shape, src)
		for q := uint(l % 2); q+1 < n; q += 2 {
			c.Append(benchEntangler(shape, q, q+1))
		}
	}
	c.Extend(qft.Circuit(n))
	return c
}

// NoiseTraj is the noise-traj workload's circuit (genNoiseTraj): (a
// rotation layer, a QFT, a CNOT/Ry ladder, the inverse QFT) twice, no
// region annotated, under a global depolarizing channel of probability
// 0.001. Axes and angles both come from seed. The benchmark runs
// NoiseTraj(12, seed) at Fused w=4 with emulation off — 452 gates, 810
// insertion points.
func NoiseTraj(n uint, seed uint64) *circuit.Circuit {
	src := benchStream(seed, "noise-traj")
	c := circuit.New(n)
	for rep := 0; rep < 2; rep++ {
		benchRotationLayer(c, src, src)
		c.Append(qft.Circuit(n).Gates...)
		for q := uint(0); q+1 < n; q++ {
			c.Append(gates.CNOT(q, q+1), gates.Ry(q+1, benchAngle(src)))
		}
		c.Append(qft.InverseCircuit(n).Gates...)
	}
	return c.SetGlobalNoise(circuit.Channel{Kind: circuit.Depolarizing, P: 0.001})
}

// RandomCircuit draws count gates uniformly over dense rotations, phase
// gates, CNOTs and controlled rotations on random qubits — no locality for
// fusion to exploit beyond what commutation finds.
func RandomCircuit(n uint, count int, seed uint64) *circuit.Circuit {
	src := rng.New(seed)
	c := circuit.New(n)
	for i := 0; i < count; i++ {
		q := uint(src.Intn(int(n)))
		o := uint(src.Intn(int(n)))
		switch src.Intn(6) {
		case 0:
			c.Append(gates.H(q))
		case 1:
			c.Append(gates.Rx(q, src.Float64()*3))
		case 2:
			c.Append(gates.Rz(q, src.Float64()*3))
		case 3:
			c.Append(gates.T(q))
		case 4:
			if o != q {
				c.Append(gates.CNOT(o, q))
			} else {
				c.Append(gates.X(q))
			}
		default:
			if o != q {
				c.Append(gates.CR(o, q, src.Float64()*2))
			} else {
				c.Append(gates.S(q))
			}
		}
	}
	return c
}

// GroverGateLevel builds iters iterations of gate-level Grover search over
// n qubits: an X-conjugated multi-controlled-Z oracle marking `marked`,
// then the H/X-conjugated multi-controlled-Z diffusion. The (n-1)-control
// gates exceed any reasonable fusion width, so this workload exercises the
// passthrough path between fuseable Hadamard/X layers. The oracle and the
// diffusion's phase flip are annotated as "phaseflip" regions so the
// emulation dispatcher can lower them to single diagonal passes.
func GroverGateLevel(n uint, marked uint64, iters int) *circuit.Circuit {
	c := circuit.New(n)
	controls := make([]uint, n-1)
	for i := range controls {
		controls[i] = uint(i) + 1
	}
	allQubits := func() []uint64 {
		args := []uint64{uint64(n)}
		for q := uint(0); q < n; q++ {
			args = append(args, uint64(q))
		}
		return args
	}
	mcz := gates.Z(0).WithControls(controls...)
	for q := uint(0); q < n; q++ {
		c.Append(gates.H(q))
	}
	for it := 0; it < iters; it++ {
		// Oracle: flip the phase of |marked>.
		lo := c.Len()
		for q := uint(0); q < n; q++ {
			if (marked>>q)&1 == 0 {
				c.Append(gates.X(q))
			}
		}
		c.Append(mcz)
		for q := uint(0); q < n; q++ {
			if (marked>>q)&1 == 0 {
				c.Append(gates.X(q))
			}
		}
		c.Annotate(circuit.Region{Name: "phaseflip", Args: append(allQubits(), marked),
			Lo: lo, Hi: c.Len()})
		// Diffusion: 2|s><s| - I. The whole H/X-conjugated block is a
		// Householder reflection about the uniform state, annotated as
		// such (absorbing the inner phase flip) so the dispatcher can run
		// it as two linear passes.
		lo = c.Len()
		for q := uint(0); q < n; q++ {
			c.Append(gates.H(q), gates.X(q))
		}
		mid := c.Len()
		c.Append(mcz)
		c.Annotate(circuit.Region{Name: "phaseflip", Args: append(allQubits(), (uint64(1)<<n)-1),
			Lo: mid, Hi: c.Len()})
		for q := uint(0); q < n; q++ {
			c.Append(gates.X(q), gates.H(q))
		}
		c.Annotate(circuit.Region{Name: "reflect-uniform", Args: allQubits(), Lo: lo, Hi: c.Len()})
	}
	return c
}

// FusionRow is one workload of the fusion sweep: the unfused and
// same-target-fused baselines against block fusion at widths 2..MaxWidth.
type FusionRow struct {
	Name   string
	Qubits uint
	Gates  int
	// TNoFuse executes gate by gate, TFuse1 with the paper's same-target
	// fusion (a width-1 plan); TWidth[i] is block fusion at width 2+i.
	TNoFuse float64
	TFuse1  float64
	TWidth  []float64
	// Plans[i] summarises the width-(2+i) schedule.
	Plans []fuse.Stats
}

// FusionConfig bounds the fusion sweep.
type FusionConfig struct {
	Qubits   uint // register width for every workload
	MaxWidth int  // largest fusion width to sweep (>= 2)
}

// DefaultFusion sweeps widths 2..5 on 20-qubit deep circuits.
func DefaultFusion() FusionConfig { return FusionConfig{Qubits: 20, MaxWidth: 5} }

// Fusion runs the block-fusion sweep on three deep workloads: repeated
// QFT, a brickwork ansatz and an unstructured random circuit.
func Fusion(cfg FusionConfig) []FusionRow {
	if cfg.MaxWidth > fuse.MaxWidth {
		cfg.MaxWidth = fuse.MaxWidth
	}
	n := cfg.Qubits
	workloads := []struct {
		name string
		c    *circuit.Circuit
	}{
		{"deep QFT x3", DeepQFT(n, 3)},
		{"brickwork", Brickwork(n, 16, 42)},
		{"tiled ansatz", TiledAnsatz(n, 4, 3, 3, 44)},
		{"random", RandomCircuit(n, 600, 43)},
	}
	src := rng.New(2020)
	var rows []FusionRow
	for _, w := range workloads {
		init := statevec.NewRandom(n, src)
		row := FusionRow{Name: w.name, Qubits: n, Gates: w.c.Len()}
		// nofuse is the raw-kernel baseline: the specialised kernels gate
		// by gate, no Compile. Every fused series is a compiled target.
		st := init.Clone()
		row.TNoFuse = timeIt(shortTime, func() { st.CopyFrom(init) }, func() { w.c.Run(st) })
		fused := func(width int) float64 {
			sec, _ := timeTarget(w.c, backend.Target{NumQubits: n, Kind: backend.Fused, FuseWidth: width}, init)
			return sec
		}
		row.TFuse1 = fused(1)
		for width := 2; width <= cfg.MaxWidth; width++ {
			row.Plans = append(row.Plans, fuse.New(w.c, width).Stats())
			row.TWidth = append(row.TWidth, fused(width))
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatFusion renders the fusion sweep with per-width speedups over the
// same-target fusion baseline and the block statistics of the best width.
func FormatFusion(rows []FusionRow) string {
	if len(rows) == 0 {
		return ""
	}
	header := []string{"circuit", "qubits", "gates", "t_nofuse", "t_fuse1"}
	for i := range rows[0].TWidth {
		header = append(header, fmt.Sprintf("t_w%d", i+2))
	}
	header = append(header, "best speedup vs fuse1")
	var table [][]string
	var notes string
	for _, r := range rows {
		cells := []string{r.Name, fmt.Sprintf("%d", r.Qubits), fmt.Sprintf("%d", r.Gates),
			secs(r.TNoFuse), secs(r.TFuse1)}
		best, bestW := r.TFuse1, 1
		for i, t := range r.TWidth {
			cells = append(cells, secs(t))
			if t < best {
				best, bestW = t, i+2
			}
		}
		cells = append(cells, fmt.Sprintf("%.2fx (w=%d)", r.TFuse1/best, bestW))
		table = append(table, cells)
		if bestW >= 2 {
			notes += fmt.Sprintf("  %-12s w=%d plan: %v\n", r.Name, bestW, r.Plans[bestW-2])
		} else {
			notes += fmt.Sprintf("  %-12s block fusion never beat same-target fusion here\n", r.Name)
		}
	}
	return "Gate fusion: generic 2^k blocks vs the paper's same-target fusion\n" +
		Table(header, table) + "\n" + notes
}
