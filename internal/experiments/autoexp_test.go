package experiments

import (
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/perfmodel"
)

// TestAutoWithinBudget pins the auto backend's acceptance contract on the
// workloads of the auto sweep, deterministically: under the model of
// record the selector's pick is priced within 15% of the cheapest priced
// candidate, strictly below the dearest, and is the pinned target. The
// wall-clock side of the contract — the pick also *runs* near the best
// hand-picked configuration — is a measurement, not a unit test: the
// sweep itself (qemu-bench -experiment auto) and the benchmark's
// emulate-mix workload report it with pairing rules a 2 ms timing inside
// go test does not have.
func TestAutoWithinBudget(t *testing.T) {
	want := map[string]string{"qft-noswap-n16": "fused w=1", "tiled-n12": "fused w=4"}
	for _, w := range autoWorkloads(QuickAuto()) {
		p, _ := backend.ProfileCircuit(w.Circuit)
		sel := backend.SelectTarget(p, perfmodel.Default())
		cheapest, dearest := math.Inf(1), 0.0
		for _, cand := range sel.Candidates {
			if math.IsInf(cand.Cost, 1) {
				continue // ruled out, not priced
			}
			cheapest = math.Min(cheapest, cand.Cost)
			dearest = math.Max(dearest, cand.Cost)
		}
		if sel.Cost > 1.15*cheapest {
			t.Errorf("%s: chosen %s priced %.3g, cheapest candidate %.3g, budget 1.15x",
				w.Name, backend.DescribeTarget(sel.Chosen), sel.Cost, cheapest)
		}
		if sel.Cost >= dearest {
			t.Errorf("%s: chosen %s priced %.3g does not beat the dearest candidate %.3g",
				w.Name, backend.DescribeTarget(sel.Chosen), sel.Cost, dearest)
		}
		if got := backend.DescribeTarget(sel.Chosen); got != want[w.Name] {
			t.Errorf("%s: chose %s, want %s", w.Name, got, want[w.Name])
		}
	}
}
