package cluster_test

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/circgen"
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
// single-node shortcut on 1-, 2- and 4-node clusters.
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
	for _, p := range []int{1, 2, 4} {
		// One node holds the whole register in its shard, so every
		// transform is shard-local there.
		wantFull, wantField := cluster.SubstrateFourStepFFT, cluster.SubstrateLocalFFT
		if p == 1 {
			wantFull = cluster.SubstrateLocalFFT
		}
		for _, tc := range full {
			op := planOps(t, tc.c, recognize.Annotated)[0]
			applyOpBoth(t, op, statevec.NewRandom(n, src), p, wantFull)
		}
		// Narrow field: a 4-qubit transform inside the 8-qubit register,
		// running shard-locally after one remap.
		field := circuit.New(n)
		field.Extend(qft.Circuit(4))
		op := planOps(t, field, recognize.Annotated)[0]
		applyOpBoth(t, op, statevec.NewRandom(n, src), p, wantField)

		ifield := circuit.New(n)
		ifield.Extend(qft.CircuitNoSwap(4).Dagger())
		iop := planOps(t, ifield, recognize.Annotated)[0]
		applyOpBoth(t, iop, statevec.NewRandom(n, src), p, wantField)
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

	// The same adder below the node bits of a wider register runs on
	// every shard as on one state, and nothing crosses the network.
	low := circuit.New(2*w + 4)
	revlib.AdderWithCarryOut(low, revlib.Seq(0, w), revlib.Seq(w, w), 2*w, 2*w+1)
	lowOp := planOps(t, low, recognize.Auto)[0]
	for _, p := range []int{1, 2, 4} {
		applyOpBoth(t, lowOp, statevec.NewRandom(2*w+4, src), p, cluster.SubstrateStatevec)
		cl, err := cluster.New(2*w+4, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ApplyOp(lowOp); err != nil {
			t.Fatal(err)
		}
		if st := cl.Stats.Snapshot(); st != (cluster.StatsSnapshot{}) {
			t.Errorf("node-local addc on P=%d communicated: %+v", p, st)
		}
	}

	// Multiplier: annotated mul region.
	l := revlib.NewMultiplierLayout(2)
	mul := revlib.BuildMultiplier(l)
	mop := planOps(t, mul, recognize.Annotated)[0]
	applyOpBoth(t, mop, statevec.NewRandom(l.NumQubits(), src), 2, cluster.SubstratePermutation)

	// Grover pieces: reflect-uniform (annotated over its gates, H·X on
	// every qubit around a multi-controlled Z) lowers to the reflection
	// path.
	refl := circuit.New(6)
	for q := uint(0); q < 6; q++ {
		refl.Append(gates.H(q), gates.X(q))
	}
	refl.Append(gates.Z(0).WithControls(1, 2, 3, 4, 5))
	for q := uint(0); q < 6; q++ {
		refl.Append(gates.X(q), gates.H(q))
	}
	refl.Annotate(circuit.Region{Name: "reflect-uniform",
		Args: []uint64{6, 0, 1, 2, 3, 4, 5}, Lo: 0, Hi: refl.Len()})
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

		// The same support as a phase flip of a random pattern, annotated
		// over its gates: X where the pattern reads 0 around a
		// multi-controlled Z.
		flip := circuit.New(n)
		args := []uint64{uint64(len(support))}
		for _, q := range support {
			args = append(args, uint64(q))
		}
		pattern := uint64(src.Intn(1 << len(support)))
		args = append(args, pattern)
		flipZeros := func() {
			for j, q := range support {
				if pattern>>j&1 == 0 {
					flip.Append(gates.X(q))
				}
			}
		}
		flipZeros()
		flip.Append(gates.Z(support[0]).WithControls(support[1:]...))
		flipZeros()
		flip.Annotate(circuit.Region{Name: "phaseflip", Args: args, Lo: 0, Hi: flip.Len()})
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

// fourierVariant builds one of the four Fourier shapes of the field
// [pos, pos+w) of an n-qubit register as its recognised op.
func fourierVariant(t *testing.T, n, pos, w uint, swaps, inverse bool) *recognize.Op {
	t.Helper()
	c := qft.Field(n, pos, w, swaps)
	if inverse {
		c = c.Dagger()
	}
	return planOps(t, c, recognize.Annotated)[0]
}

// TestFourierLoweringFromDriftedPlacement holds the lowering of every
// Fourier field wider than a shard — the full register and fields one
// qubit wider than a shard at either end — at 2, 4 and 8 nodes, odd and
// even n, both directions with and without swaps, against the single-node
// transform to 1e-10. Each starts from a shuffled placement and pays two
// all-to-alls whatever it was: the first remap goes from there straight
// to the layout that makes the field's node bits local.
func TestFourierLoweringFromDriftedPlacement(t *testing.T) {
	src := rng.New(41)
	for _, n := range []uint{9, 10} {
		for _, p := range []int{2, 4, 8} {
			cl, err := cluster.New(n, p)
			if err != nil {
				t.Fatal(err)
			}
			L := cl.L
			fields := [][2]uint{{0, n}}
			if L+1 < n {
				fields = append(fields, [2]uint{0, L + 1}, [2]uint{n - L - 1, L + 1})
			}
			for _, f := range fields {
				want := cluster.SubstrateFieldFFT
				if f[1] == n {
					want = cluster.SubstrateFourStepFFT
				}
				for _, swaps := range []bool{true, false} {
					for _, inverse := range []bool{false, true} {
						op := fourierVariant(t, n, f[0], f[1], swaps, inverse)
						init := statevec.NewRandom(n, src)
						if err := cl.LoadState(init); err != nil {
							t.Fatal(err)
						}
						cl.Remap(shuffledPlacement(n, src))
						cl.ResetStats()
						sub, err := cl.ApplyOp(op)
						if err != nil || sub != want {
							t.Fatalf("%v on P=%d lowered to %q, %v; want %q", op, p, sub, err, want)
						}
						if got := cl.Stats.AllToAlls.Load(); got != 2 {
							t.Errorf("%v on P=%d paid %d all-to-alls, want 2", op, p, got)
						}
						ref := init.Clone()
						op.Apply(ref)
						if d := cl.Gather().MaxDiff(ref); d > 1e-10 {
							t.Errorf("%v (n=%d P=%d) diverges from one node by %g", op, n, p, d)
						}
					}
				}
			}
		}
	}
}

// TestEmulateQFTOneNode holds EmulateQFT on one node: one DIF network
// over the shard, matching the QFT circuit, with no communication and its
// output order left in the placement as the full-register reversal; the
// Canonicalize that follows undoes it in place, still for free.
func TestEmulateQFTOneNode(t *testing.T) {
	const n = 10
	c, err := cluster.New(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := loadRandom(t, c, rng.New(43))
	if err := c.EmulateQFT(); err != nil {
		t.Fatal(err)
	}
	got := c.Placement()
	for q, p := range got {
		if n-1-uint(q) != p {
			t.Fatalf("one-node EmulateQFT left placement %v, want the reversal", got)
		}
	}
	qft.Circuit(n).Run(st)
	if d := c.Gather().MaxDiff(st); d > 1e-10 {
		t.Errorf("one-node EmulateQFT differs from the QFT circuit by %g", d)
	}
	c.Canonicalize()
	if d := c.State().MaxDiff(st); d > 1e-10 {
		t.Errorf("canonicalised one-node EmulateQFT differs from the QFT circuit by %g", d)
	}
	if s := c.Stats.Snapshot(); s != (cluster.StatsSnapshot{}) {
		t.Errorf("one-node EmulateQFT and Canonicalize communicated: %+v", s)
	}
}

// TestSampleManyAfterFourierOp samples straight after a Fourier op, with
// its output order still in the placement: the draws must be the
// single-node sampler's on the same amplitudes, draw for draw.
func TestSampleManyAfterFourierOp(t *testing.T) {
	const n = 10
	src := rng.New(47)
	for _, p := range []int{2, 4, 8} {
		cl, err := cluster.New(n, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []*recognize.Op{
			fourierVariant(t, n, 0, n, true, false),
			fourierVariant(t, n, n-cl.L-1, cl.L+1, false, false),
		} {
			loadRandom(t, cl, src)
			if _, err := cl.ApplyOp(op); err != nil {
				t.Fatal(err)
			}
			want := cl.Gather().SampleMany(512, rng.New(uint64(p)))
			got := cl.SampleMany(512, rng.New(uint64(p)))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v on P=%d: draw %d is |%d>, single node |%d>", op, p, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGateUnitAfterFourierOp runs a scheduled gate segment straight after
// a Fourier op, from the placement the op leaves: the pair must match the
// circuit applied gate by gate to 1e-10.
func TestGateUnitAfterFourierOp(t *testing.T) {
	const n = 10
	src := rng.New(53)
	for _, p := range []int{2, 4, 8} {
		for _, f := range [][2]uint{{0, n}, {1, n - 1}} {
			ft := qft.Field(n, f[0], f[1], true)
			op := planOps(t, ft, recognize.Annotated)[0]
			rest := circgen.Brickwork(src, n, 3)
			cl, err := cluster.New(n, p)
			if err != nil {
				t.Fatal(err)
			}
			init := loadRandom(t, cl, src)
			if _, err := cl.ApplyOp(op); err != nil {
				t.Fatal(err)
			}
			schedule(t, cl, rest, 3)
			ref := init.Clone()
			circuit.New(n).Extend(ft).Extend(rest).Run(ref)
			if d := cl.Gather().MaxDiff(ref); d > 1e-10 {
				t.Errorf("P=%d field %v: op then gates differ from the circuit by %g", p, f, d)
			}
		}
	}
}

// TestFourierLoweringAllocatesLittle bounds what one call of the wide
// lowering allocates at n = 20 once its plans are warm: nothing that
// grows with the field (TestFourStepDoesNotAllocate pins the full
// register's call at zero).
func TestFourierLoweringAllocatesLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("transforms a 20-qubit register on 4 emulated nodes")
	}
	const n = 20
	c, err := cluster.New(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range [][2]uint{{0, n}, {0, n - 1}} {
		op := fourierVariant(t, n, f[0], f[1], true, false)
		n1 := f[0] + f[1] - c.L
		for i := 0; i < 2; i++ { // plans, scratch and move tables
			if _, err := c.ApplyOp(op); err != nil {
				t.Fatal(err)
			}
		}
		const calls = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if _, err := c.ApplyOp(op); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / calls
		t.Logf("field %v: %d bytes per call", f, perCall)
		if bound := uint64(16)<<(2*n1) + 4<<10; perCall > bound {
			t.Errorf("field %v: %d bytes per call, want at most %d (4^n1 block entries and placements)", f, perCall, bound)
		}
	}
}

// TestReflectUniformChunks holds the reflection, split over each shard's
// workers, against a' = a - 2(Σa)/N computed serially: one and two
// nodes, one and three workers per node (a share count that does not
// divide the shard), under a shuffled placement. The allreduce charges
// P(P-1) messages of 16 bytes and one round on several nodes and nothing
// on one.
func TestReflectUniformChunks(t *testing.T) {
	const n = 16
	src := rng.New(61)
	for _, p := range []int{1, 2} {
		for _, workers := range []int{1, 3} {
			c, err := cluster.New(n, p)
			if err != nil {
				t.Fatal(err)
			}
			c.SetNodeParallelism(workers)
			init := loadRandom(t, c, src)
			c.Remap(shuffledPlacement(n, src))
			c.ResetStats()
			c.ReflectUniform()
			amps := init.Amplitudes()
			var sum complex128
			for _, a := range amps {
				sum += a
			}
			mu := sum * complex(2/float64(len(amps)), 0)
			for i := range amps {
				amps[i] -= mu
			}
			if d := c.Gather().MaxDiff(init); d > 1e-12 {
				t.Errorf("P=%d workers=%d: differs from the serial reflection by %g", p, workers, d)
			}
			want := cluster.StatsSnapshot{}
			if p > 1 {
				p64 := uint64(p)
				want = cluster.StatsSnapshot{BytesSent: 16 * p64 * (p64 - 1), Messages: p64 * (p64 - 1), Rounds: 1}
			}
			if got := c.Stats.Snapshot(); got != want {
				t.Errorf("P=%d workers=%d: stats %+v, want %+v", p, workers, got, want)
			}
		}
	}
}

// TestOpSumCarriesThroughFlipAndReflection holds the carried amplitude sum
// to the register's: a phase flip on a known sum, a reflection on it (one
// pass) and a reflection on an unknown one (two) each leave the state the
// two-pass lowering leaves, to 1e-12, and return the sum the register
// then holds when the next op carries it on; the reflection pays its
// allreduce round on several nodes either way, reports one pass exactly
// when its sum was known, and returns the sum unknown before an op that
// does not carry it (an add, or none) — as does the add itself.
func TestOpSumCarriesThroughFlipAndReflection(t *testing.T) {
	const n = 10
	src := rng.New(67)
	c := circuit.New(n)
	c.Extend(circgen.GroverMix(src, n, true))
	ops := planOps(t, c, recognize.Annotated)
	var flip, reflect, add *recognize.Op
	for _, op := range ops {
		switch op.Kind() {
		case "phaseflip":
			flip = op
		case "reflect":
			reflect = op
		case "add":
			add = op
		}
	}
	sumOf := func(st *statevec.State) complex128 {
		var s complex128
		for _, a := range st.Amplitudes() {
			s += a
		}
		return s
	}
	steps := []struct {
		op    *recognize.Op
		known bool
	}{{flip, true}, {reflect, true}, {flip, true}, {reflect, false}, {reflect, true},
		{flip, true}, {reflect, true}, {add, true}, {reflect, false}}
	for _, p := range []int{1, 2, 4} {
		cl, err := cluster.New(n, p)
		if err != nil {
			t.Fatal(err)
		}
		init := loadRandom(t, cl, src)
		cl.Remap(shuffledPlacement(n, src))
		ref := init.Clone()
		s := cluster.Sum{Value: sumOf(init), Known: true}
		for k, step := range steps {
			if !step.known {
				s = cluster.Sum{}
			}
			var next *recognize.Op
			if k+1 < len(steps) {
				next = steps[k+1].op
			}
			cl.ResetStats()
			after, onePass, err := cl.ApplyOpSum(step.op, next, s)
			if err != nil {
				t.Fatal(err)
			}
			step.op.Apply(ref)
			if d := cl.Gather().MaxDiff(ref); d > 1e-12 {
				t.Fatalf("P=%d step %d %v on a known sum %v: differs from the op by %g", p, k, step.op, s.Known, d)
			}
			if want := step.op == reflect && s.Known; onePass != want {
				t.Errorf("P=%d step %d %v: one pass %v, want %v", p, k, step.op, onePass, want)
			}
			if step.op == add || step.op == reflect && (next == nil || next == add) {
				if after.Known {
					t.Errorf("P=%d step %d %v before %v: returns a known sum", p, k, step.op, next)
				}
				s = after
				continue
			}
			if want := sumOf(ref); !after.Known || cmplxAbs(after.Value-want) > 1e-12 {
				t.Errorf("P=%d step %d %v: carried sum %v, the register's %v", p, k, step.op, after, want)
			}
			if rounds := cl.Stats.Snapshot().Rounds; step.op == reflect && rounds != uint64(min(p-1, 1)) {
				t.Errorf("P=%d: the reflection paid %d rounds", p, rounds)
			}
			s = after
		}
	}
}

// TestOpPairMatchesOpsApart holds ApplyOpPair to ApplyOp on each op, bit
// for bit, for the Grover mix's adder then diagonal and diagonal then
// subtractor, on one, two and four nodes, under a shuffled placement: a
// pair whose supports lie below L composes, and any other is refused, the
// register untouched.
func TestOpPairMatchesOpsApart(t *testing.T) {
	const n = 10
	src := rng.New(71)
	composed := 0
	for seed := range uint64(8) {
		ops := planOps(t, circgen.GroverMix(rng.New(seed), n, false), recognize.Auto)
		var pairs [][2]*recognize.Op
		for i := 1; i < len(ops); i++ {
			if ops[i-1].Hi == ops[i].Lo {
				pairs = append(pairs, [2]*recognize.Op{ops[i-1], ops[i]})
			}
		}
		for _, pair := range pairs {
			diag, arith := pair[0], pair[1]
			if _, _, ok := diag.DiagTable(); !ok {
				diag, arith = arith, diag
			}
			_, _, isDiag := diag.DiagTable()
			if _, ok := arith.FieldAdd(); !ok || !isDiag {
				continue
			}
			for _, p := range []int{1, 2, 4} {
				cl, err := cluster.New(n, p)
				if err != nil {
					t.Fatal(err)
				}
				init := loadRandom(t, cl, src)
				placement := shuffledPlacement(n, src)
				cl.Remap(placement)
				ran := cl.ApplyOpPair(pair[0], pair[1])
				apart, err := cluster.New(n, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := apart.LoadState(init); err != nil {
					t.Fatal(err)
				}
				apart.Remap(placement)
				top := max(slices.Max(diag.Support()), slices.Max(arith.Support()))
				if want := top < cl.L; ran != want {
					t.Fatalf("seed %d P=%d: %v then %v composed: %v, want %v", seed, p, pair[0], pair[1], ran, want)
				}
				if ran {
					composed++
					apart.ApplyOp(pair[0])
					apart.ApplyOp(pair[1])
				}
				got, want := cl.Gather().Amplitudes(), apart.Gather().Amplitudes()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d P=%d: %v then %v: amplitude %d is %v, apart %v", seed, p, pair[0], pair[1], i, got[i], want[i])
					}
				}
			}
		}
	}
	if composed == 0 {
		t.Error("no pair composed")
	}
}

func cmplxAbs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }
