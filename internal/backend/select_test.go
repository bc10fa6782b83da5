package backend_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/experiments"
	"repro/internal/gates"
	"repro/internal/perfmodel"
	"repro/internal/qft"
	"repro/internal/revlib"
	"repro/internal/rng"
)

// The pinned selections run against perfmodel.Active() — one table on
// every host — so they are machine-independent: no timing, just the
// deterministic profile -> select pipeline.

// TestSelectQFTEmulates pins the canonical emulation win: a full QFT at
// n=20 stays on a local engine with the Fourier region dispatched to the
// classical FFT, not run gate by gate.
func TestSelectQFTEmulates(t *testing.T) {
	p, _ := backend.ProfileCircuit(qft.Circuit(20))
	sel := backend.SelectTarget(p, perfmodel.Active())
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
	sel := backend.SelectTarget(p, perfmodel.Active())
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
	sel := backend.SelectTarget(p, perfmodel.Active())
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
	c := circgen.Brickwork(rng.New(11), 12, 4)
	p1, _ := backend.ProfileCircuit(c)
	s1 := backend.SelectTarget(p1, perfmodel.Active())
	for i := 0; i < 3; i++ {
		p2, _ := backend.ProfileCircuit(c)
		s2 := backend.SelectTarget(p2, perfmodel.Active())
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
	sel := backend.SelectTarget(p, perfmodel.Active())
	rep := sel.Report()
	for _, want := range []string{"auto backend: chose", "candidates:", "fused w=8", "cluster", "regions:", "qft"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if len(sel.Candidates) != len(backend.AutoFuseWidths)+1 {
		t.Errorf("%d candidates, want one per fusion width plus the cluster:\n%s", len(sel.Candidates), rep)
	}
}

// TestSelectFewDenseGatesStayFused pins the mis-selection a
// structure-blind candidate priced by its support caused: circuits with
// few dense gates — a 19-qubit ripple adder on a basis input, a 22-qubit
// GHZ ladder — were sent to a baseline that runs them orders of magnitude
// slower, the adder's region dropped. Both stay on the fused engine, the
// adder emulated.
func TestSelectFewDenseGatesStayFused(t *testing.T) {
	adder := circuit.New(19)
	for _, q := range []uint{0, 3, 4, 8, 9, 11, 16} {
		adder.Append(gates.X(q))
	}
	revlib.Adder(adder, revlib.Seq(0, 9), revlib.Seq(9, 9), 18)
	for _, tc := range []struct {
		name    string
		c       *circuit.Circuit
		emulate string
	}{
		{"adder-n19", adder, "add"},
		{"ghz-n22", qft.Entangler(22), ""},
	} {
		p, _ := backend.ProfileCircuit(tc.c)
		sel := backend.SelectTarget(p, perfmodel.Active())
		if sel.Chosen.Kind != backend.Fused {
			t.Errorf("%s chose %s, want fused:\n%s", tc.name, backend.DescribeTarget(sel.Chosen), sel.Report())
		}
		if tc.emulate == "" {
			continue
		}
		found := false
		for _, v := range sel.Verdicts {
			if v.Kind == tc.emulate {
				found = true
				if !v.Emulate {
					t.Errorf("%s: %s region not emulated: %s", tc.name, v.Kind, v.Reason)
				}
			}
		}
		if !found {
			t.Errorf("%s: no %s verdict in %+v", tc.name, tc.emulate, sel.Verdicts)
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
//
// The tiled residual's w=8 rung became +Inf (was 27.9) when the ladder
// started stopping at 2w ≤ n: on 12 qubits a 2^8×2^8 block holds more
// entries than the state, so the profile no longer schedules it. The
// w=4 choice did not move.
func TestSelectBenchAutoPinned(t *testing.T) {
	near := func(got, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] && !(math.Abs(got[i]-want[i]) <= 1e-9) {
				return false
			}
		}
		return true
	}

	p, _ := backend.ProfileCircuit(qft.CircuitNoSwap(16))
	sel := backend.SelectTarget(p, perfmodel.Active())
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
	sel = backend.SelectTarget(p, perfmodel.Active())
	if sel.Chosen.Kind != backend.Fused || sel.Chosen.FuseWidth != 4 {
		t.Errorf("tiled-n12 chose %s w=%d, want fused w=4", sel.Chosen.Kind, sel.Chosen.FuseWidth)
	}
	if len(sel.Verdicts) != 0 {
		t.Errorf("tiled-n12 verdicts %+v, want none", sel.Verdicts)
	}
	if !near(p.ResidualUnits, []float64{47.34, 21.44, 5.7, math.Inf(1)}) || math.Abs(p.GateByGateUnits-76.14) > 1e-9 {
		t.Errorf("tiled-n12 residual %v gate-by-gate %v, want [47.34 21.44 5.7 +Inf] and 76.14",
			p.ResidualUnits, p.GateByGateUnits)
	}
}

// lyingAdderShape is the compile corpus's lying adder on n qubits:
// rotation layers around a ripple adder with one extra X in its gate
// list, annotated as a plain "add", so verification rejects the region
// and every gate stays on the fused path. n >= 3.
func lyingAdderShape(src *rng.Source, n uint, minGates int) *circuit.Circuit {
	w := (n - 1) / 2
	c := circuit.New(n)
	for c.Len() < minGates {
		for q := uint(0); q < n; q++ {
			c.Append(gates.Ry(q, src.Float64()*3), gates.Rz(q, src.Float64()*3))
		}
		sub := circuit.New(n)
		revlib.Adder(sub, revlib.Seq(0, w), revlib.Seq(w, w), 2*w)
		lo := c.Len()
		c.Append(sub.Gates[:len(sub.Gates)/2]...)
		c.Append(gates.X(1))
		c.Append(sub.Gates[len(sub.Gates)/2:]...)
		c.Annotate(circuit.Region{Name: "add", Args: sub.Regions[0].Args, Lo: lo, Hi: c.Len()})
	}
	return c
}

// TestAutoWidthFitsRegister pins the ladder's stop: the auto target never
// fuses a block whose 2^w×2^w matrix holds more entries than the 2^n
// state. On every register from 2 to 20 qubits the chosen width is 1 or
// satisfies 2w ≤ n, an excluded rung is listed at +Inf with its note and
// priced at +Inf in the profile, and from 16 qubits up the whole ladder
// competes. On the compile corpus's 8-qubit lying adder no block wider
// than 4 qubits is built, at Compile or at Decode.
func TestAutoWidthFitsRegister(t *testing.T) {
	const note = "block matrix outgrows the register"
	for n := uint(2); n <= 20; n++ {
		shapes := map[string]*circuit.Circuit{"brickwork": circgen.Brickwork(rng.New(uint64(n)), n, 400/int(n)+1)}
		if n >= 3 {
			shapes["lying-adder"] = lyingAdderShape(rng.New(uint64(n)), n, 400)
		}
		for name, c := range shapes {
			p, _ := backend.ProfileCircuit(c)
			sel := backend.SelectTarget(p, perfmodel.Active())
			if w := sel.Chosen.FuseWidth; w != 1 && uint(2*w) > n {
				t.Errorf("%s n=%d chose fused w=%d, a block larger than the state:\n%s", name, n, w, sel.Report())
			}
			for i, w := range backend.AutoFuseWidths {
				cand := sel.Candidates[i]
				excluded := w != 1 && uint(2*w) > n
				if n >= 16 && excluded {
					t.Fatalf("n=%d excludes w=%d", n, w)
				}
				if excluded != (math.IsInf(cand.Cost, 1) && cand.Note == note) {
					t.Errorf("%s n=%d w=%d: cost %g note %q, excluded=%t", name, n, w, cand.Cost, cand.Note, excluded)
				}
				if excluded != math.IsInf(p.ResidualUnits[i], 1) {
					t.Errorf("%s n=%d w=%d: residual units %g, excluded=%t", name, n, w, p.ResidualUnits[i], excluded)
				}
			}
		}
	}

	c := lyingAdderShape(rng.New(3), 8, 400)
	x, err := backend.Compile(c, backend.Target{NumQubits: 8, Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := x.Encode()
	if err != nil {
		t.Fatal(err)
	}
	y, err := backend.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for what, x := range map[string]*backend.Executable{"Compile": x, "Decode(Encode(x))": y} {
		blocks := 0
		for _, u := range x.Units {
			if u.Op != nil {
				t.Fatalf("%s: the lying region was emulated", what)
			}
			if u.Fused == nil {
				continue
			}
			for _, b := range u.Fused.Blocks {
				blocks++
				if len(b.Qubits) > 4 {
					t.Errorf("%s: a fused block spans %d qubits %v", what, len(b.Qubits), b.Qubits)
				}
			}
		}
		if blocks == 0 {
			t.Errorf("%s: no fused block at all (target %s)", what, backend.DescribeTarget(x.Target))
		}
	}
}

// TestPredictedRoundsPricesFourierLowerings pins the cluster round
// estimate of one Fourier region of each lowering at n = 12 on four nodes
// (L = 10): one canonicalization, the region's remaps — one for a field
// that fits a shard, two for a wider one — and one remap per L branching
// gates (the fields' Hadamards).
func TestPredictedRoundsPricesFourierLowerings(t *testing.T) {
	const n = 12
	target := backend.Target{NumQubits: n, Kind: backend.Cluster, Nodes: 4, FuseWidth: 4}
	for _, tc := range []struct {
		name   string
		pos, w uint
		want   int
	}{
		{"local-fft", 2, 6, 1 + 1 + 0},
		{"field-four-step-fft", 0, 11, 1 + 2 + 1},
		{"four-step-fft", 0, n, 1 + 2 + 1},
	} {
		p, _ := backend.ProfileCircuit(qft.Field(n, tc.pos, tc.w, false))
		if len(p.Regions) != 1 {
			t.Fatalf("%s: %d recognised regions, want 1", tc.name, len(p.Regions))
		}
		if got := backend.PredictedRounds(p, target); got != tc.want {
			t.Errorf("%s: predicted %d rounds, want %d", tc.name, got, tc.want)
		}
	}
}
