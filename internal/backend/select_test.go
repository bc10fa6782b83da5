package backend_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/qft"
)

// The pinned selections run against perfmodel.Default() — the model of
// record — so they are machine-independent: no calibration cache, no
// timing, just the deterministic profile -> select pipeline.

// TestSelectQFTEmulates pins the canonical emulation win: a full QFT at
// n=20 stays on a local engine with the Fourier region dispatched to the
// classical FFT, not run gate by gate.
func TestSelectQFTEmulates(t *testing.T) {
	p, _ := backend.ProfileCircuit(qft.Circuit(20))
	sel := backend.SelectTarget(p, perfmodel.Default())
	if sel.Chosen.Kind != backend.Fused {
		t.Fatalf("QFT n=20 chose %s, want fused", sel.Chosen.Kind)
	}
	if len(sel.Verdicts) != 1 || sel.Verdicts[0].Kind != "qft" {
		t.Fatalf("expected one qft verdict, got %+v", sel.Verdicts)
	}
	if !sel.Verdicts[0].Emulate {
		t.Errorf("QFT region not emulated: %s", sel.Verdicts[0].Reason)
	}
}

// TestSelectShallowBrickworkFusesWide pins the fusion win: a shallow
// brickwork of dense 4-qubit tiles at n=12 picks width-4 block fusion —
// the regime where multi-qubit fusion beats both narrower fusion and
// every baseline.
func TestSelectShallowBrickworkFusesWide(t *testing.T) {
	c := experiments.TiledAnsatz(12, 4, 3, 1, 5)
	p, _ := backend.ProfileCircuit(c)
	sel := backend.SelectTarget(p, perfmodel.Default())
	if sel.Chosen.Kind != backend.Fused || sel.Chosen.FuseWidth != 4 {
		t.Fatalf("shallow 4-qubit brickwork n=12 chose %s w=%d, want fused w=4",
			sel.Chosen.Kind, sel.Chosen.FuseWidth)
	}
}

// TestSelectWideRegisterClusters pins the capacity policy: n=30 exceeds
// the per-node budget (2^28 amplitudes), so the selector shards — here
// onto 4 nodes — and every single-node candidate is ruled out, not just
// outscored.
func TestSelectWideRegisterClusters(t *testing.T) {
	p, _ := backend.ProfileCircuit(qft.Circuit(30))
	sel := backend.SelectTarget(p, perfmodel.Default())
	if sel.Chosen.Kind != backend.Cluster {
		t.Fatalf("n=30 chose %s, want cluster", sel.Chosen.Kind)
	}
	if sel.Chosen.Nodes != 4 {
		t.Errorf("n=30 chose %d nodes, want 4 (local budget %d qubits)",
			sel.Chosen.Nodes, backend.DefaultAutoMaxLocalQubits)
	}
	for _, cand := range sel.Candidates {
		if cand.Target.Kind != backend.Cluster && cand.Note == "" {
			t.Errorf("single-node candidate %s has no exclusion note", cand.Target.Kind)
		}
	}
}

// TestSelectDeterministic pins the detrng contract end to end: profiling
// and selection are pure functions of the circuit, so repeated runs agree
// exactly — costs, ordering, verdicts, report text.
func TestSelectDeterministic(t *testing.T) {
	c := experiments.Brickwork(12, 4, 11)
	p1, _ := backend.ProfileCircuit(c)
	s1 := backend.SelectTarget(p1, perfmodel.Default())
	for i := 0; i < 3; i++ {
		p2, _ := backend.ProfileCircuit(c)
		s2 := backend.SelectTarget(p2, perfmodel.Default())
		if !reflect.DeepEqual(p1, p2) {
			t.Fatal("profiles of the same circuit differ")
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatal("selections of the same profile differ")
		}
		if s1.Report() != s2.Report() {
			t.Fatal("selection reports differ")
		}
	}
}

// TestSelectionReport sanity-checks the report surface qemu-run prints:
// chosen target, one line per candidate, verdict lines.
func TestSelectionReport(t *testing.T) {
	p, _ := backend.ProfileCircuit(qft.Circuit(16))
	sel := backend.SelectTarget(p, perfmodel.Default())
	rep := sel.Report()
	for _, want := range []string{"auto backend: chose", "candidates:", "generic", "sparse", "regions:", "qft"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestSelectBenchAutoPinned pins, for the two circuits of the auto
// experiment (qemu-bench -quick -experiment auto), everything the cost-only
// profile feeds the selector and what comes out: the per-width sweep units,
// the chosen target and every region verdict.
//
// The units at widths 2, 4 and 8 were re-pinned when fuse.denseBlockCost
// followed the AVX2/FMA dense body (ISSUE 16: 1.7 / 8.6 / 132 sweep units
// at w = 2 / 4 / 8 became 0.8 / 1.9 / 26, from statevec's
// BenchmarkDenseBlock — e.g. a w=4 sweep 19 → 2.3 ns/amp at n=20): the QFT
// region's gate units were [68 67.92 54.72 39.2], the tiled residual
// [47.34 37.08 25.8 36.54]. Width 1 and the gate-by-gate sum price no
// dense block and did not move; neither did either choice.
func TestSelectBenchAutoPinned(t *testing.T) {
	near := func(got, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}

	p, _ := backend.ProfileCircuit(qft.CircuitNoSwap(16))
	sel := backend.SelectTarget(p, perfmodel.Default())
	if sel.Chosen.Kind != backend.Fused || sel.Chosen.FuseWidth != 1 {
		t.Errorf("qft-noswap-n16 chose %s w=%d, want fused w=1", sel.Chosen.Kind, sel.Chosen.FuseWidth)
	}
	if len(sel.Verdicts) != 1 || sel.Verdicts[0].Lo != 0 || sel.Verdicts[0].Hi != 136 || !sel.Verdicts[0].Emulate {
		t.Errorf("qft-noswap-n16 verdicts %+v, want one emulated region [0,136)", sel.Verdicts)
	}
	if len(p.Regions) != 1 || !near(p.Regions[0].GateUnits, []float64{68, 62.4, 39.5, 37.3}) {
		t.Errorf("qft-noswap-n16 region units %+v, want [68 62.4 39.5 37.3]", p.Regions)
	}
	if !near(p.ResidualUnits, []float64{0, 0, 0, 0}) || p.GateByGateUnits != 0 {
		t.Errorf("qft-noswap-n16 residual %v / %v, want zeros", p.ResidualUnits, p.GateByGateUnits)
	}

	p, _ = backend.ProfileCircuit(experiments.TiledAnsatz(12, 4, 3, 1, 5))
	sel = backend.SelectTarget(p, perfmodel.Default())
	if sel.Chosen.Kind != backend.Fused || sel.Chosen.FuseWidth != 4 {
		t.Errorf("tiled-n12 chose %s w=%d, want fused w=4", sel.Chosen.Kind, sel.Chosen.FuseWidth)
	}
	if len(sel.Verdicts) != 0 {
		t.Errorf("tiled-n12 verdicts %+v, want none", sel.Verdicts)
	}
	if !near(p.ResidualUnits, []float64{47.34, 21.44, 5.7, 27.9}) || math.Abs(p.GateByGateUnits-76.14) > 1e-9 {
		t.Errorf("tiled-n12 residual %v gate-by-gate %v, want [47.34 21.44 5.7 27.9] and 76.14",
			p.ResidualUnits, p.GateByGateUnits)
	}
}
