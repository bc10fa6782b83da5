package backend_test

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/noise"
	"repro/internal/qasm"
	"repro/internal/recognize"
	"repro/internal/rng"
)

// TestSolveAllocationBudget pins what one served solve of the benchmark's
// gate-sweep shape — parse, Compile, Reset, Run, SampleMany(1024) of the
// 20-qubit 300-gate circuit at Fused w=4 on a warm backend — leaves on the
// heap. The collector never runs inside that workload's ten seconds, so
// its peak RSS is the state plus solves x this number. A solve read
// 485 KiB under the narrow plans of the scalar prices and 338 KiB
// (346 320 B) while every w=4 dense block carried a 4 KiB matrix; the 45
// of 50 blocks that are Kronecker products now carry two 256-byte factors,
// the same again in the ZMM body's order and 128 bytes of tables —
// about 1.5 KiB a block — and a solve reads 232 272 B on the AVX-512
// body, 238 128 B on AVX2 and 239 472 B in pure Go. With the product
// prefix (unit 0's first 107 gates in clusters of 2, 8 and 10 qubits) a
// solve holds the clusters' states (20 KiB) and runs two cost-only
// scheduling passes to decide the split, but plans only the remainder —
// the prefix's gates are planned on the first run from a register that is
// not fresh, which a solve never makes: 221 672 B on the AVX-512 body,
// 224 360 B on AVX2 and 225 288 B in pure Go. The budget is the first
// reading plus 5%. Carrying the prefix across units adds the remainder's
// gate pointers (8 B a gate, fuse.NewOf) and the spanned units' lowering
// slots: 224 048 B, 226 832 B and 227 952 B.
func TestSolveAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 20-qubit circuit twice")
	}
	var text strings.Builder
	if err := qasm.Write(&text, experiments.GateSweep(20, 10, 3)); err != nil {
		t.Fatal(err)
	}
	target := backend.Target{NumQubits: 20, Kind: backend.Fused, FuseWidth: 4, Emulate: recognize.Off, Workers: 2}
	b, err := backend.New(target)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	solve := func() {
		c, err := qasm.ParseString(text.String())
		if err != nil {
			t.Fatal(err)
		}
		x, err := backend.Compile(c, target)
		if err != nil {
			t.Fatal(err)
		}
		b.Reset()
		if _, err := b.Run(x); err != nil {
			t.Fatal(err)
		}
		b.SampleMany(1024, rng.New(1))
	}
	solve() // the worker pool, kernel scratch and sampling buffers are the backend's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve()
	runtime.ReadMemStats(&after)
	const budget = 228 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one solve allocated %d B", got)
	if got > budget {
		t.Errorf("one solve allocated %d B, budget %d", got, budget)
	}
}

// TestFactoredBlocksPinned pins how many of the benchmark's dense blocks
// run as Kronecker factors (fuse.Block.Factors), the share of a workload
// the in-tile factored sweep speeds up. The plans counted are what a run
// from |0...0> executes: a product prefix is filled, and the units its
// span covers are planned only for a register that is not fresh. Since the
// prefix, 29 of gate-sweep's 31 (264 of 496 multiplies per amplitude; 45
// of 50 and 440 of 800 when the prefix's 107 gates were planned with the
// rest). In cluster-shard's brickwork half, 2 of the 4 blocks of the
// remainder (48 of 64) since the recognised four-CZ diagonal joined the
// prefix as its four pair factors instead of one eight-qubit cluster. 7 of
// 10 (104 of 160) when it joined whole and the prefix's span carried
// through it into the 146-gate unit behind it: 104 of the span's 169 gates
// were filled, 65 planned. Before, 16 of 23 (240 of 368) when only the
// 23-gate first unit was prefix, and 21 of 28 before that. The shapes are
// fixed by the generators' shape streams, not by the seed.
func TestFactoredBlocksPinned(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		c                      *circuit.Circuit
		target                 backend.Target
		dense, factored        int
		mulsDense, mulsRunning int
	}{
		{"gate-sweep", experiments.GateSweep(20, 10, 3),
			backend.Target{NumQubits: 20, Kind: backend.Fused, FuseWidth: 4, Emulate: recognize.Off, Workers: 2},
			31, 29, 496, 264},
		{"cluster-shard", experiments.ClusterShard(20, 6, 3),
			backend.Target{NumQubits: 20, Kind: backend.Cluster, Nodes: 4, FuseWidth: 4, Emulate: recognize.Auto, Workers: 2},
			4, 2, 64, 48},
	} {
		x, err := backend.Compile(tc.c, tc.target)
		if err != nil {
			t.Fatal(err)
		}
		if st := x.FusionStats(); st.Dense != tc.dense || st.Factored != tc.factored || st.MulsDense != tc.mulsDense || st.MulsRun != tc.mulsRunning {
			t.Errorf("%s: %d dense blocks, %d factored, %d of %d multiplies per amplitude; want %d, %d, %d of %d",
				tc.name, st.Dense, st.Factored, st.MulsRun, st.MulsDense, tc.dense, tc.factored, tc.mulsRunning, tc.mulsDense)
		}
	}
}

// TestClusterShardCommPinned pins the communication of the benchmark's
// cluster-shard circuit (20 qubits, 4 nodes, w=4, emulation on): the
// counts behind its cluster.rounds / planned_remaps / bytes_sent. They
// moved from 8 / 3 / 1.04858e8 when the AVX2-priced planner widened the
// brickwork half's blocks (ISSUE 16): cluster.requiredMask makes a dense
// block need its whole support node-local where a replayed controlled gate
// constrains placement through its target only, so wider blocks turn free
// remote controls into remaps. The in-process link is priced at zero, so
// wall time did not pay for it; a placement term in the price table
// (ROADMAP item 3) has to precede any further widening of cluster plans.
// They moved again, from 11 rounds and 1<<27 bytes, when the QFT region's
// lowering stopped paying three full-state transposes: it remaps straight
// from the schedule's placement to the one that makes its node bits
// local, remaps back, and leaves its output order in the placement, whose
// Canonicalize the sampler pays outside Run. They moved from 9 rounds, 6
// planned remaps and 113246208 bytes when a fresh register started with
// the product prefix's fill: unit 0 (gates [0, 23), clusters of at most
// two qubits) is all prefix, so its remaps are not run or planned. They
// moved from 7 rounds, 5 planned remaps and 88080384 bytes when the
// prefix's span carried through the recognised diagonal after unit 0 into
// the 146-gate brickwork unit behind it: 104 of the span's 169 gates fill,
// and the 65 left plan one remap where the unit's whole segment planned
// five. They moved from 3 rounds, 1 planned remap and 37748736 bytes when
// the diagonal — four CZs on disjoint pairs — joined the prefix as its four
// pair factors (recognize.Op.Factors) instead of merging four pair
// clusters into one of eight qubits: the brickwork's remainder plans no
// remap, and a run pays only the QFT's two all-to-alls.
func TestClusterShardCommPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 20-qubit circuit on 4 emulated nodes")
	}
	target := backend.Target{NumQubits: 20, Kind: backend.Cluster, Nodes: 4, FuseWidth: 4, Emulate: recognize.Auto, Workers: 2}
	x, err := backend.Compile(experiments.ClusterShard(20, 6, 3), target)
	if err != nil {
		t.Fatal(err)
	}
	b, err := backend.New(target)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res, err := b.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Rounds != 2 || res.PlannedRemaps != 0 || res.Comm.BytesSent != 25165824 {
		t.Errorf("rounds %d, planned remaps %d, bytes sent %d; want 2, 0, 25165824",
			res.Comm.Rounds, res.PlannedRemaps, res.Comm.BytesSent)
	}
}

// TestClusterShardSampleCommPinned pins what one SampleMany(1024) costs
// the network on cluster-shard's final placement at P = 4, where the QFT
// leaves logical qubits 0 and 1 on the node bits and 2..19 at local
// positions 0..17. The draws are read under that placement: the 2^14
// block tables reduce in one round (3 x 2^14 x 8 = 393 216 B) and the
// walk reads the other three nodes' 48 weights (8 B each) of each of the
// 927 blocks that hold a draw, in another. Sampling used to canonicalise first: one
// all-to-all of 12 582 912 B, three quarters of the state.
func TestClusterShardSampleCommPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 20-qubit circuit on 4 emulated nodes")
	}
	target := backend.Target{NumQubits: 20, Kind: backend.Cluster, Nodes: 4, FuseWidth: 4, Emulate: recognize.Auto, Workers: 2}
	x, err := backend.Compile(experiments.ClusterShard(20, 6, 3), target)
	if err != nil {
		t.Fatal(err)
	}
	b, err := backend.New(target)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Run(x); err != nil {
		t.Fatal(err)
	}
	c := b.(interface{ Cluster() *cluster.Cluster }).Cluster()
	want := []uint{18, 19}
	for q := uint(2); q < 20; q++ {
		want = append(want, q-2)
	}
	if got := c.Placement(); !slices.Equal(got, want) {
		t.Fatalf("placement after the run is %v, want %v", got, want)
	}
	before := c.Stats.Snapshot()
	b.SampleMany(1024, rng.New(3<<20))
	after := c.Stats.Snapshot()
	got := cluster.StatsSnapshot{
		BytesSent: after.BytesSent - before.BytesSent,
		Messages:  after.Messages - before.Messages,
		Exchanges: after.Exchanges - before.Exchanges,
		AllToAlls: after.AllToAlls - before.AllToAlls,
		Rounds:    after.Rounds - before.Rounds,
	}
	pinned := cluster.StatsSnapshot{BytesSent: 393216 + 927*48*8, Messages: 3 + 3, Rounds: 2}
	if got != pinned {
		t.Errorf("SampleMany(1024) on cluster-shard's placement communicated %+v, want %+v", got, pinned)
	}
	if p := c.Placement(); !slices.Equal(p, want) {
		t.Errorf("sampling moved the placement to %v", p)
	}
}

// noiseTrajTarget is the noise-traj workload's compile target.
var noiseTrajTarget = backend.Target{NumQubits: 12, Kind: backend.Fused, FuseWidth: 4, Emulate: recognize.Off, Workers: 1}

// TestNoiseTrajShapePinned pins what the spacing rule makes of the
// benchmark's noise-traj circuit (12 qubits, 452 gates, depolarizing
// 0.001 after every gate — 810 insertion points): the numbers behind its
// noise.units_per_traj and the reason a trajectory costs what the ideal
// plan does. Through PR 18 every point cut a unit: 452 one-gate units, no
// fused block. The rule (NoisePlan) closes a unit where its expected
// replay cost reaches one sweep, ~24 gates here, and a struck unit costs
// its gates replayed — so "replayed gates / executed gates" is the number
// that says the spacing still matches the traffic: it is ~(units' gate
// count) x (fire probability per gate) = 24 x 0.0018 = 4%, and would pass
// 10% only if units grew past what the rule allows.
func TestNoiseTrajShapePinned(t *testing.T) {
	c := experiments.NoiseTraj(12, 3)
	x, err := backend.Compile(c, noiseTrajTarget)
	if err != nil {
		t.Fatal(err)
	}
	if x.NumGates != 452 || len(x.Noise.Points) != 810 {
		t.Fatalf("%d gates, %d points; the workload has 452 and 810", x.NumGates, len(x.Noise.Points))
	}
	if len(x.Units) > 40 || x.FusedBlocks == 0 {
		t.Errorf("%d units, %d fused blocks; want at most 40 units and fused blocks in them", len(x.Units), x.FusedBlocks)
	}
	const trajectories = 400
	res, err := noise.Run(x, noise.Options{Trajectories: trajectories, Seed: 3 << 20, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	executed := uint64(trajectories * x.NumGates)
	t.Logf("%d units, %d fused blocks; %d jumps, %d struck units, %d of %d gates replayed (%.1f%%)",
		len(x.Units), x.FusedBlocks, res.Jumps, res.StruckUnits, res.ReplayedGates, executed,
		100*float64(res.ReplayedGates)/float64(executed))
	if res.StruckUnits == 0 || 10*res.ReplayedGates > executed {
		t.Errorf("%d struck units replayed %d of %d gates; want some, and at most 10%%", res.StruckUnits, res.ReplayedGates, executed)
	}
}

// TestNoiseTrajOutcomesMatchParent holds the runner to the outcomes the
// cut-everywhere runner of PR 18 produced for the noise-traj shape: the
// first 400 trajectories at circuit seeds 1 and 7, recorded in testdata by
// that commit. The draw stream is the contract — one variate per point in
// plan order — so moving unit boundaries must not move one outcome. A
// fused block and its gates differ in the last ulp; if that ever flips a
// draw this test names the trajectory, and the answer is to explain that
// index, not to compare histograms instead.
func TestNoiseTrajOutcomesMatchParent(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		f, err := os.Open(fmt.Sprintf("testdata/noise_traj_seed%d.txt", seed))
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if strings.HasPrefix(sc.Text(), "#") {
				continue
			}
			v, err := strconv.ParseUint(sc.Text(), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, v)
		}
		f.Close()
		x, err := backend.Compile(experiments.NoiseTraj(12, seed), noiseTrajTarget)
		if err != nil {
			t.Fatal(err)
		}
		res, err := noise.Run(x, noise.Options{Trajectories: len(want), Seed: seed << 20, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 400 {
			t.Fatalf("seed %d: testdata holds %d outcomes, want 400", seed, len(want))
		}
		for i := range want {
			if res.Outcomes[i] != want[i] {
				t.Errorf("seed %d: trajectory %d sampled %d, the parent commit %d", seed, i, res.Outcomes[i], want[i])
			}
		}
	}
}
