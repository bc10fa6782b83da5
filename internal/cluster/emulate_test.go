package cluster_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// planOps analyses c and returns the recognised ops, failing the test when
// recognition found nothing (the lowering under test would be skipped).
func planOps(t *testing.T, c *circuit.Circuit, mode recognize.Mode) []*recognize.Op {
	t.Helper()
	ops := recognize.Analyze(c, recognize.DefaultOptions(mode)).Ops()
	if len(ops) == 0 {
		t.Fatalf("no ops recognised in %v", c)
	}
	return ops
}

// applyOpBoth runs op on a P-node cluster loaded with init and on a
// single-node copy, and compares the results exactly.
func applyOpBoth(t *testing.T, op *recognize.Op, init *statevec.State, p int, wantSub string) {
	t.Helper()
	n := init.NumQubits()
	cl, err := cluster.New(n, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadState(init); err != nil {
		t.Fatal(err)
	}
	sub, err := cl.ApplyOp(op)
	if err != nil {
		t.Fatal(err)
	}
	if wantSub != "" && sub != wantSub {
		t.Fatalf("op %v lowered to %q, want %q", op, sub, wantSub)
	}
	ref := init.Clone()
	op.Apply(ref)
	if d := cl.Gather().MaxDiff(ref); d > 1e-10 {
		t.Fatalf("op %v on P=%d diverges from single node by %g (substrate %s)", op, p, d, sub)
	}
}

// TestClusterQFTLowerings checks every Fourier shape (forward/inverse,
// with/without swaps, full register and narrow field) against the
// single-node shortcut on 2- and 4-node clusters.
func TestClusterQFTLowerings(t *testing.T) {
	const n = 8
	src := rng.New(7)
	full := []struct {
		name string
		c    *circuit.Circuit
	}{
		{"qft", qft.Circuit(n)},
		{"iqft", qft.Circuit(n).Dagger()},
		{"qft-noswap", qft.CircuitNoSwap(n)},
		{"iqft-noswap", qft.CircuitNoSwap(n).Dagger()},
	}
	for _, p := range []int{2, 4} {
		for _, tc := range full {
			op := planOps(t, tc.c, recognize.Annotated)[0]
			applyOpBoth(t, op, statevec.NewRandom(n, src), p, cluster.SubstrateFourStepFFT)
		}
		// Narrow field: a 4-qubit transform inside the 8-qubit register,
		// running shard-locally after one remap.
		field := circuit.New(n)
		field.Extend(qft.Circuit(4))
		op := planOps(t, field, recognize.Annotated)[0]
		applyOpBoth(t, op, statevec.NewRandom(n, src), p, cluster.SubstrateLocalFFT)

		ifield := circuit.New(n)
		ifield.Extend(qft.CircuitNoSwap(4).Dagger())
		iop := planOps(t, ifield, recognize.Annotated)[0]
		applyOpBoth(t, iop, statevec.NewRandom(n, src), p, cluster.SubstrateLocalFFT)
	}
}

// TestClusterQFTAfterDriftedPlacement checks the FFT lowering composes
// with a preceding gate-level segment that drifted the placement.
func TestClusterQFTAfterDriftedPlacement(t *testing.T) {
	const n = 8
	src := rng.New(13)
	init := statevec.NewRandom(n, src)
	circ := qft.Circuit(n)
	op := planOps(t, circ, recognize.Annotated)[0]

	cl, err := cluster.New(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadState(init); err != nil {
		t.Fatal(err)
	}
	// Drift the placement with a scheduled run of a remote-target circuit.
	pre := qft.Circuit(n).Dagger()
	schedule(t, cl, pre, 3)
	if _, err := cl.ApplyOp(op); err != nil {
		t.Fatal(err)
	}

	ref := init.Clone()
	for _, g := range pre.Gates {
		ref.ApplyGate(g)
	}
	op.Apply(ref)
	if d := cl.Gather().MaxDiff(ref); d > 1e-10 {
		t.Fatalf("FFT after drifted placement diverges by %g", d)
	}
}

// TestClusterPermutationAndDiagonalLowerings checks the arithmetic,
// phase-flip, diagonal and reflection lowerings.
func TestClusterPermutationAndDiagonalLowerings(t *testing.T) {
	src := rng.New(21)

	// addc: the carry-out adder as one permutation (also exercises the new
	// matcher end to end through Auto mode).
	const w = 3
	addc := circuit.New(2*w + 2)
	revlib.AdderWithCarryOut(addc, revlib.Seq(0, w), revlib.Seq(w, w), 2*w, 2*w+1)
	addc.Regions = nil // force the pattern matcher
	op := planOps(t, addc, recognize.Auto)[0]
	if op.Kind() != "addc" {
		t.Fatalf("matched %q, want addc", op.Kind())
	}
	if !op.Verified {
		t.Fatal("addc op not verified by the brute-force check")
	}
	applyOpBoth(t, op, statevec.NewRandom(2*w+2, src), 4, cluster.SubstratePermutation)

	// Multiplier: annotated mul region.
	l := revlib.NewMultiplierLayout(2)
	mul := revlib.BuildMultiplier(l)
	mop := planOps(t, mul, recognize.Annotated)[0]
	applyOpBoth(t, mop, statevec.NewRandom(l.NumQubits(), src), 2, cluster.SubstratePermutation)

	// Grover pieces: reflect-uniform (annotated) and an X-conjugated
	// phase flip (matched) lower to the reflection and diagonal paths.
	refl := circuit.New(6)
	refl.Extend(qft.Entangler(6)) // any gates; region drives the lowering
	refl.Annotate(circuit.Region{Name: "reflect-uniform",
		Args: []uint64{6, 0, 1, 2, 3, 4, 5}, Lo: 0, Hi: refl.Len()})
	// Verification would reject the lying annotation; lower it untrusted.
	ops := recognize.Analyze(refl, recognize.Options{Mode: recognize.Annotated}).Ops()
	if len(ops) != 1 {
		t.Fatalf("reflect region not lowered: %d ops", len(ops))
	}
	applyOpBoth(t, ops[0], statevec.NewRandom(6, src), 2, cluster.SubstrateReflect)
}

// shuffledPlacement returns a random logical→physical placement.
func shuffledPlacement(n uint, src *rng.Source) []uint {
	pos := make([]uint, n)
	for q := range pos {
		pos[q] = uint(q)
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(int(i + 1))
		pos[i], pos[j] = pos[j], pos[i]
	}
	return pos
}

// TestClusterDiagonalOpsAnyPlacement holds the table lowering of
// recognised diagonal runs — narrow ones (the ApplyDiagN kernel) and ones
// wider than MaxMatrixNQubits (ApplyDiagTable) — and the phase-flip
// lowering to Gather + Op.Apply, under the identity placement and under
// drifted ones that put support qubits on node-selecting positions in
// scrambled order.
func TestClusterDiagonalOpsAnyPlacement(t *testing.T) {
	const n = 12
	src := rng.New(33)
	var ops []*recognize.Op
	for _, support := range [][]uint{
		{3},
		{0, 1, 2, 3},
		{1, 4, 6, 10, 11},
		{0, 2, 3, 5, 7, 8, 9, 11},
		{0, 1, 2, 3, 4, 5, 6, 8, 10, 11},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	} {
		run := circuit.New(n)
		for i, q := range support {
			run.Append(gates.Rz(q, 0.3+src.Float64()), gates.T(q))
			if i > 0 {
				run.Append(gates.CR(support[i-1], q, src.Float64()))
			}
		}
		run.Append(gates.S(support[0]), gates.Phase(support[0], src.Float64()))
		op := planOps(t, run, recognize.Auto)[0]
		if got := op.Support(); op.Kind() != "diagonal" || len(got) != len(support) {
			t.Fatalf("matched %v on %v, want a diagonal run on %v", op, got, support)
		}
		ops = append(ops, op)

		// The same support as a phase flip of a random pattern; the gates
		// under the annotation do not matter to an unverified lowering.
		flip := circuit.New(n)
		flip.Append(gates.H(0))
		args := []uint64{uint64(len(support))}
		for _, q := range support {
			args = append(args, uint64(q))
		}
		args = append(args, uint64(src.Intn(1<<len(support))))
		flip.Annotate(circuit.Region{Name: "phaseflip", Args: args, Lo: 0, Hi: 1})
		flips := recognize.Analyze(flip, recognize.Options{Mode: recognize.Annotated}).Ops()
		if len(flips) != 1 || flips[0].Kind() != "phaseflip" {
			t.Fatalf("phaseflip region on %v not lowered", support)
		}
		ops = append(ops, flips[0])
	}
	for _, p := range []int{1, 2, 4, 8} {
		cl, err := cluster.New(n, p)
		if err != nil {
			t.Fatal(err)
		}
		ident := cl.Placement()
		for _, placement := range [][]uint{ident, shuffledPlacement(n, src), shuffledPlacement(n, src)} {
			for _, op := range ops {
				init := statevec.NewRandom(n, src)
				if err := cl.LoadState(init); err != nil {
					t.Fatal(err)
				}
				cl.Remap(placement)
				cl.ResetStats()
				if sub, err := cl.ApplyOp(op); err != nil || sub != cluster.SubstrateDiagonal {
					t.Fatalf("%v lowered to %q, %v", op, sub, err)
				}
				if st := cl.Stats.Snapshot(); st != (cluster.StatsSnapshot{}) {
					t.Errorf("%v on P=%d communicated: %+v", op, p, st)
				}
				ref := init.Clone()
				op.Apply(ref)
				if d := cl.Gather().MaxDiff(ref); d > 1e-12 {
					t.Errorf("%v on P=%d placement %v diverges by %g", op, p, placement, d)
				}
			}
		}
	}
}
