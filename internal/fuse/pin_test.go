package fuse_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/experiments"
	"repro/internal/fuse"
)

// TestBenchFusionPlansPinned pins the schedules of the four BENCH_fusion.json
// circuits (the -quick sizes) at the widths that baseline times: block
// counts by kind and the model cost are those of the planner that decided
// from accumulated matrices, so moving the decision onto structure changed
// what planning costs and not what executes.
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
			{382, 3, 0, 379, 232.78}, {251, 3, 0, 248, 233.39}, {189, 3, 84, 102, 191.02}}},
		{"brickwork", experiments.Brickwork(n, 16, 42), [3]want{
			{127, 120, 0, 7, 206.94}, {188, 88, 0, 100, 245.14}, {137, 105, 0, 32, 232.30}}},
		{"tiled ansatz", experiments.TiledAnsatz(n, 4, 3, 3, 44), [3]want{
			{158, 78, 0, 80, 186.00}, {147, 33, 0, 114, 216.14}, {15, 15, 0, 0, 129.00}}},
		{"random", experiments.RandomCircuit(n, 600, 43), [3]want{
			{217, 66, 19, 132, 240.00}, {273, 41, 28, 204, 302.76}, {297, 32, 30, 235, 311.14}}},
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
