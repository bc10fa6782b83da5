// Command qemu-run executes a circuit file (the qasm text format of
// internal/qasm) on a chosen back-end and reports the resulting state or
// measurement statistics. It is a thin shell over the repro facade: the
// flags spell a Target field for field (fusion width, emulation mode,
// node count, the structure-blind baseline, or auto), the circuit
// compiles for it through the one pass pipeline, which validates it,
// repro.OpenFor opens the backend the executable runs on, and every
// configuration reports the same Result.
//
// Usage:
//
//	qemu-run [-backend auto|ours|generic] [-fuse-width K]
//	         [-emulate off|annotated|auto] [-nodes P] [-shots K] [-top N]
//	         [-seed S] [-noise kind:p -trajectories N [-workers W]] circuit.qc
//
// -backend ours (the default) runs the paper's fused simulator, which is
// the cluster engine on one node (-nodes P shards it across P); -backend
// generic runs the structure-blind baseline, a gate-by-gate replay
// through the dense 2x2 kernel kept as the reference, not an engine.
//
// -backend auto hands the whole configuration to the profile-driven
// selector: Compile profiles the circuit, prices the engines it serves
// (fused at each width of its ladder, cluster) with the cost model
// and resolves the auto target to the cheapest; the backend is
// opened for that shape, and the full selection report is printed —
// chosen target, candidate costs, per-region emulate-vs-fuse verdicts.
// `-emulate auto` with no -fuse-width or -nodes pins routes through the
// same selector; add pins to keep the classic behaviour (emulation
// dispatch on the shape you chose).
//
// -fuse-width K enables multi-qubit block fusion: consecutive gates whose
// combined support fits in K qubits are merged into one dense 2^K block
// applied in a single sweep.
//
// -emulate annotated|auto turns on emulation dispatch: the circuit is
// analysed by internal/recognize and recognised subroutines
// (region-annotated or pattern-matched QFTs, reversible arithmetic, phase
// oracles) execute as classical shortcuts.
//
// -nodes P shards the register across P emulated cluster nodes running
// the communication-avoiding scheduler of internal/cluster. Emulation
// dispatch combines with it: recognised QFT regions wider than a shard
// execute as the four-step distributed FFT — two all-to-alls, the output
// order left in the placement for the next canonicalize, which pays Eq.
// 5's third — and arithmetic regions as one cluster-wide permutation,
// with the measured communication (rounds, messages, bytes) reported
// afterwards.
//
// With -shots 0 (default) the full amplitude listing of the -top most
// probable basis states is printed — the emulator's "complete distribution
// in one run" advantage of Section 3.4. With -shots K > 0 the program
// additionally samples K hardware-style measurement outcomes.
//
// -noise "kind:probability" (e.g. -noise depolarizing:0.001) attaches a
// global after-each-gate channel and, together with -trajectories N,
// switches to stochastic-trajectory noisy simulation: the circuit is
// compiled once and replayed N times, each replay sampling an
// independent seed-deterministic noise realisation, and the outcome
// histogram is reported in place of the amplitude listing. Circuits
// whose qasm source carries `noise` directives need only -trajectories.
// -workers W runs trajectories on W parallel backends; the outcomes are
// identical for any W.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro"
	"repro/internal/backend"
	"repro/internal/qasm"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

func main() {
	var (
		backendName = flag.String("backend", "ours", "back-end: auto, ours (the fused simulator: the cluster engine on one node, or on -nodes P), generic (gate-by-gate reference replay)")
		fuseWidth   = flag.Int("fuse-width", 0, "multi-qubit fusion width (0 = classic same-target fusion)")
		emulate     = flag.String("emulate", "", "emulation dispatch: off, annotated, auto (default off)")
		nodes       = flag.Int("nodes", 0, "shard the register across this many emulated cluster nodes (power of two)")
		shots       = flag.Int("shots", 0, "number of measurement samples to draw (0 = none)")
		top         = flag.Int("top", 16, "number of basis states to list")
		seed        = flag.Uint64("seed", 1, "measurement RNG seed")
		noiseSpec   = flag.String("noise", "", `global noise channel "kind:probability" (x, y, z, depolarizing, ampdamp, phasedamp)`)
		trajs       = flag.Int("trajectories", 0, "stochastic-trajectory count for noisy simulation (0 = ideal run)")
		workers     = flag.Int("workers", 0, "parallel trajectory workers (0 = serial; outcomes are identical for any value)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qemu-run [flags] circuit.qc")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *backendName, *fuseWidth, *emulate, *nodes, *shots, *top, *seed, *noiseSpec, *trajs, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "qemu-run:", err)
		os.Exit(1)
	}
}

// target builds the Target the circuit is compiled for straight from the
// flags. normalize (inside Compile) validates the shape; what stays here
// is what only the flags can see: pins that contradict each other.
func target(n uint, backendName string, fuseWidth int, emulate string, nodes int) (repro.Target, error) {
	mode := recognize.Off
	if emulate != "" {
		m, err := recognize.ParseMode(emulate)
		if err != nil {
			return repro.Target{}, fmt.Errorf("-emulate: %v", err)
		}
		mode = m
	}
	t := repro.Target{NumQubits: n, FuseWidth: fuseWidth, Nodes: nodes, Emulate: mode}
	auto := repro.Target{NumQubits: n, Auto: true}
	switch backendName {
	case "auto":
		// Fully profile-driven: the compiler picks engine shape, fusion
		// width and the per-region verdicts, so shape pins contradict it.
		if fuseWidth >= 2 {
			return t, fmt.Errorf("-fuse-width contradicts -backend auto (auto picks the width)")
		}
		if nodes > 1 {
			return t, fmt.Errorf("-nodes contradicts -backend auto (auto picks the node count)")
		}
		if emulate != "" && mode != recognize.Auto {
			return t, fmt.Errorf("-emulate %s contradicts -backend auto (auto decides per region)", emulate)
		}
		return auto, nil
	case "ours", "":
		// -emulate auto with no shape pins means "decide for me": route
		// through the profile-driven selector so the report explains the
		// choice instead of silently defaulting the engine shape.
		if mode == recognize.Auto && fuseWidth < 2 && nodes <= 1 {
			return auto, nil
		}
	case "generic":
		if fuseWidth >= 2 {
			return t, fmt.Errorf("-fuse-width applies to the ours back-end, not %q", backendName)
		}
		t.Kind = backend.Generic
	default:
		return t, fmt.Errorf("unknown backend %q (auto, ours, generic)", backendName)
	}
	return t, nil
}

func run(path, backendName string, fuseWidth int, emulate string, nodes, shots, top int, seed uint64, noiseSpec string, trajs, workers int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	circ, err := qasm.Parse(f)
	if err != nil {
		return err
	}
	if circ.NumQubits > statevec.MaxQubits {
		return fmt.Errorf("circuit needs %d qubits; a single address space holds at most %d",
			circ.NumQubits, statevec.MaxQubits)
	}
	if noiseSpec != "" && trajs <= 0 {
		return fmt.Errorf("-noise needs -trajectories N to run the stochastic batch")
	}
	if err := repro.WithNoise(circ, noiseSpec); err != nil {
		return err
	}
	fmt.Printf("circuit: %d qubits, %d gates, depth %d\n",
		circ.NumQubits, circ.Len(), circ.Depth())

	t, err := target(circ.NumQubits, backendName, fuseWidth, emulate, nodes)
	if err != nil {
		return err
	}
	x, err := repro.Compile(circ, t)
	if err != nil {
		return err
	}
	if x.FusedBlocks > 0 {
		fmt.Printf("fusion: %v\n", x.FusionStats())
	}
	if trajs > 0 {
		return runTrajectories(int(circ.NumQubits), x, trajs, workers, seed, top)
	}
	b, err := repro.OpenFor(x)
	if err != nil {
		return err
	}
	defer b.Close()
	if t := x.Target; t.Nodes > 1 {
		fmt.Printf("cluster: %d nodes x 2^%d amplitudes; gate schedule: %d planned rounds (%d remaps) for %d gates\n",
			t.Nodes, t.LocalQubits(), x.PlannedRounds, x.PlannedRemaps, x.NumGates-x.EmulatedGates)
	}
	res, err := b.Run(x)
	if err != nil {
		return err
	}

	// The selection report explains an auto run: chosen target, every
	// candidate's predicted cost, and the per-region emulate-vs-fuse
	// verdicts.
	if res.Selection != nil {
		fmt.Println(res.Selection.Report())
	}

	// The unified Result: emulated regions, fused blocks, communication.
	fmt.Printf("run: %v\n", res)
	if res.Prefix != nil {
		fmt.Printf("  %v\n", res.Prefix)
	}
	for _, r := range res.Emulated {
		fmt.Printf("  emulated %v\n", r)
	}
	if len(res.Emulated) > 0 {
		fmt.Printf("  one-pass ops: %d composed op pairs, %d reflections on a carried sum\n",
			res.ComposedPairs, res.CarriedSums)
	}
	for _, sk := range res.Skipped {
		fmt.Printf("  region %s [%d,%d) skipped: %s\n", sk.Name, sk.Lo, sk.Hi, sk.Reason)
	}
	if res.Comm.Rounds > 0 {
		fmt.Printf("communication: %d rounds, %d messages, %.1f MB moved\n",
			res.Comm.Rounds, res.Comm.Messages, float64(res.Comm.BytesSent)/(1<<20))
	}

	st := b.State()
	type entry struct {
		idx  uint64
		prob float64
	}
	probs := st.Probabilities()
	entries := make([]entry, 0, len(probs))
	for i, p := range probs {
		if p > 1e-12 {
			entries = append(entries, entry{uint64(i), p})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].prob > entries[j].prob })
	if top > len(entries) {
		top = len(entries)
	}
	fmt.Printf("%d basis states with non-negligible probability; top %d:\n",
		len(entries), top)
	for _, e := range entries[:top] {
		fmt.Printf("  |%0*b>  p=%.6f  amp=%v\n",
			circ.NumQubits, e.idx, e.prob, st.Amplitude(e.idx))
	}

	if shots > 0 {
		src := rng.New(seed)
		counts := make(map[uint64]int)
		for _, x := range b.SampleMany(shots, src) {
			counts[x]++
		}
		fmt.Printf("%d measurement samples:\n", shots)
		keys := make([]uint64, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			// Secondary key keeps the listing deterministic across runs
			// (map iteration order would otherwise shuffle tied counts).
			if counts[keys[i]] != counts[keys[j]] {
				return counts[keys[i]] > counts[keys[j]]
			}
			return keys[i] < keys[j]
		})
		for i, k := range keys {
			if i >= top {
				fmt.Printf("  ... (%d more outcomes)\n", len(keys)-top)
				break
			}
			fmt.Printf("  |%0*b>  %d\n", circ.NumQubits, k, counts[k])
		}
	}
	return nil
}

// runTrajectories executes the stochastic-trajectory batch and prints
// the outcome histogram in place of the amplitude listing: the compiled
// artifact is shared by every trajectory, so the whole batch costs one
// pass-pipeline run.
func runTrajectories(numQubits int, x *repro.Executable, trajs, workers int, seed uint64, top int) error {
	res, err := repro.RunTrajectories(x, repro.TrajectoryOptions{
		Trajectories: trajs,
		Seed:         seed,
		Workers:      workers,
	})
	if err != nil {
		return err
	}
	rate := float64(trajs) / res.Wall.Seconds()
	fmt.Printf("trajectories: %d run over %d noise insertion points, %d noise jumps sampled\n",
		trajs, res.Points, res.Jumps)
	// A unit runs whole unless a jump fires inside it; then its gates are
	// replayed one by one. The share says what the noise cost in fusion.
	fmt.Printf("  %d units per trajectory, %d struck and replayed gate by gate (%.1f%% of executed gates)\n",
		len(x.Units), res.StruckUnits, 100*float64(res.ReplayedGates)/float64(max(1, trajs*x.NumGates)))
	// Until its first noise event a trajectory is the ideal circuit: those
	// units come from one noise-free run per worker instead.
	fmt.Printf("  %d of %d trajectory units shared from the noise-free prefix (%.1f%%)\n",
		res.SharedUnits, trajs*len(x.Units), 100*float64(res.SharedUnits)/float64(max(1, trajs*len(x.Units))))
	fmt.Printf("  wall %v (%.0f trajectories/s), seed %d\n", res.Wall, rate, seed)

	counts := res.Counts()
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	fmt.Printf("%d distinct outcomes; top %d:\n", len(keys), min(top, len(keys)))
	for i, k := range keys {
		if i >= top {
			fmt.Printf("  ... (%d more outcomes)\n", len(keys)-top)
			break
		}
		fmt.Printf("  |%0*b>  %d  (%.4f)\n", numQubits, k, counts[k], float64(counts[k])/float64(trajs))
	}
	return nil
}
