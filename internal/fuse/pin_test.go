package fuse_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/experiments"
	"repro/internal/fuse"
	"repro/internal/rng"
)

// TestBenchFusionPlansPinned pins the schedules of the four circuits of the
// fusion experiment (qemu-bench -experiment fusion, the -quick sizes) at the
// widths it times: block counts by kind and the model cost.
//
// Re-pinned when denseBlockCost followed the AVX2/FMA dense body (ISSUE
// 16): a 2^w sweep went from 1.7 / 5.4 / 8.6 sweep units (w = 2, 3, 4) to
// 0.8 / 1.1 / 1.9, measured by statevec's BenchmarkDenseBlock (2.9 → 1.6,
// 9 → 1.5, 19 → 2.3 ns/amp at n=20 on two workers), so every row widens:
// runs the scalar kernel priced out are now dense blocks. The old value of
// each row is kept beside the new one. The deep-QFT rows also retire an
// anomaly: w=3 used to be priced above w=2 (233.39 vs 232.78) and measured
// slower than classic fusion; the model cost now falls with the width.
func TestBenchFusionPlansPinned(t *testing.T) {
	const n = 16
	type want struct {
		blocks, dense, diagonal, unfused int
		chosen                           float64
	}
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
		want [3]want // widths 2, 3, 4
	}{
		{"deep QFT x3", experiments.DeepQFT(n, 3), [3]want{
			{382, 69, 0, 313, 205.44},  // was {382 3 0 379 232.78}
			{178, 46, 0, 132, 174.62},  // was {251 3 0 248 233.39}
			{111, 27, 84, 0, 135.30}}}, // was {189 3 84 102 191.02}
		{"brickwork", circgen.Brickwork(rng.New(42), n, 16), [3]want{
			{127, 120, 0, 7, 98.94},  // was {127 120 0 7 206.94}
			{98, 93, 0, 5, 104.40},   // was {188 88 0 100 245.14}
			{67, 60, 0, 7, 116.94}}}, // was {137 105 0 32 232.30}
		{"tiled ansatz", experiments.TiledAnsatz(n, 4, 3, 3, 44), [3]want{
			{158, 92, 0, 66, 107.12}, // was {158 78 0 80 186.00}
			{82, 77, 0, 5, 86.80},    // was {147 33 0 114 216.14}
			{15, 15, 0, 0, 28.50}}},  // was {15 15 0 0 129.00}
		{"random", experiments.RandomCircuit(n, 600, 43), [3]want{
			{217, 122, 19, 76, 151.92},  // was {217 66 19 132 240.00}
			{157, 119, 19, 19, 158.57},  // was {273 41 28 204 302.76}
			{146, 103, 7, 36, 201.22}}}, // was {297 32 30 235 311.14}
	} {
		for i, w := range tc.want {
			st := fuse.New(tc.c, i+2).Stats()
			got := want{st.Blocks, st.Dense, st.Diagonal, st.Unfused, st.EstChosen}
			if got.blocks != w.blocks || got.dense != w.dense || got.diagonal != w.diagonal ||
				got.unfused != w.unfused || math.Abs(got.chosen-w.chosen) > 1e-9 {
				t.Errorf("%s w=%d: plan %s, want %s", tc.name, i+2, fmt.Sprint(got), fmt.Sprint(w))
			}
		}
	}
}

// TestGateSweepPlanPinned pins the plan of the benchmark's gate-sweep
// circuit (20 qubits, 10 layers, Fused w=4 — experiments.GateSweep
// rebuilds it) so the benchmark's fuse.blocks_per_gate (59/300 = 0.1967)
// and fuse.dense_share (50/59 = 0.8475) cannot drift unnoticed. The shape
// is seed-independent; under the scalar prices it was 133 blocks — 74
// dense, all w=2, 10 diagonal, 49 replays (0.4433 and 0.5564).
func TestGateSweepPlanPinned(t *testing.T) {
	for _, seed := range []uint64{3, 5} {
		plan := fuse.New(experiments.GateSweep(20, 10, seed), 4)
		st := plan.Stats()
		if st.Gates != 300 || st.Blocks != 59 || st.Dense != 50 || st.Diagonal != 0 || st.Unfused != 9 ||
			math.Abs(st.EstChosen-99.5) > 1e-9 {
			t.Errorf("seed %d: plan %v (cost %v), want 300 gates in 59 blocks: 50 dense, 9 replays, cost 99.5", seed, st, st.EstChosen)
		}
		for i := range plan.Blocks {
			if b := &plan.Blocks[i]; b.Dense() != nil && len(b.Qubits) != 4 {
				t.Errorf("seed %d: dense block %d spans %v, want every dense block at w=4", seed, i, b.Qubits)
			}
		}
	}
}
