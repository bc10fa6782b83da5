package backend_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/rng"
)

// runAuto is the one idiom for an auto target: Compile resolves it to a
// concrete shape and attaches the selection report, and the backend is
// opened for the executable's Target. touch runs on the fresh backend
// before the Run (nil for none).
func runAuto(t *testing.T, c *circuit.Circuit, touch func(backend.Backend)) (backend.Backend, *backend.Result) {
	t.Helper()
	x, err := backend.Compile(c, backend.Target{NumQubits: c.NumQubits, Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if x.Target.Auto {
		t.Fatal("compiled executable still carries Auto: selection did not resolve")
	}
	if x.Selection == nil {
		t.Fatal("auto-compiled executable has no selection report")
	}
	// x.Target is the normalized form of the selection (defaults filled
	// in), so compare the shape fields the selector decides.
	if ch := x.Selection.Chosen; ch.Kind != x.Target.Kind || ch.FuseWidth != x.Target.FuseWidth {
		t.Fatalf("selection chose %+v but executable targets %+v", ch, x.Target)
	}
	b, err := backend.New(x.Target)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if touch != nil {
		touch(b)
	}
	res, err := b.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selection == nil || !strings.HasPrefix(res.Selection.Report(), "auto backend: chose") {
		t.Fatalf("auto Result carries no selection report: %+v", res.Selection)
	}
	return b, res
}

// checkAgainstEmulating runs c on a hand-configured emulating backend and
// requires b's state to match it.
func checkAgainstEmulating(t *testing.T, c *circuit.Circuit, b backend.Backend) {
	t.Helper()
	ref, err := backend.New(backend.Target{NumQubits: c.NumQubits, Emulate: recognize.Auto})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	x, err := backend.Compile(c, ref.Target())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(x); err != nil {
		t.Fatal(err)
	}
	if d := b.State().MaxDiff(ref.State()); d > 1e-10 {
		t.Fatalf("auto state diverges from manual emulating backend by %g", d)
	}
}

// TestAutoCompileEndToEnd runs the whole auto pipeline: Compile resolves
// the auto target to a concrete one and attaches the selection report,
// the backend opened for it runs the executable, and the final state
// matches a hand-configured emulating backend. A backend touched before
// its first Run still runs: on 16-qubit brickwork the selector picks
// block fusion, which a backend that pinned a default engine on that
// first touch would have rejected.
func TestAutoCompileEndToEnd(t *testing.T) {
	c := prep(16)
	c.Extend(qft.Circuit(16))
	b, _ := runAuto(t, c, nil)
	checkAgainstEmulating(t, c, b)

	brick := circgen.Brickwork(rng.New(1), 16, 6)
	prof, _ := backend.ProfileCircuit(brick)
	if sel := backend.SelectTarget(prof, perfmodel.Active()); sel.Chosen.FuseWidth < 2 {
		t.Fatalf("brickwork selects %+v; the scenario needs block fusion", sel.Chosen)
	}
	b, _ = runAuto(t, brick, func(b backend.Backend) { b.Probability(0) })
	checkAgainstEmulating(t, brick, b)
}

// TestAutoExecuteViaBackend pins the served path on a QFT ladder: compile
// for the auto target, open x.Target, Run — the selection report lists
// its candidates and the state matches a hand-configured emulating
// backend.
func TestAutoExecuteViaBackend(t *testing.T) {
	c := prep(12)
	c.Extend(qft.CircuitNoSwap(12))
	b, res := runAuto(t, c, nil)
	if len(res.Selection.Candidates) == 0 {
		t.Fatal("selection report lists no candidates")
	}
	checkAgainstEmulating(t, c, b)
}

// TestNewRejectsAutoTarget: an auto target names no engine, so New
// refuses it and says what to open instead.
func TestNewRejectsAutoTarget(t *testing.T) {
	_, err := backend.New(backend.Target{NumQubits: 8, Auto: true})
	if err == nil {
		t.Fatal("New opened an auto target")
	}
	if !strings.Contains(err.Error(), "Compile") {
		t.Fatalf("error does not say to compile first: %v", err)
	}
}

// TestMidWidthFieldLowersToFieldFFT is the acceptance assertion for the
// carried-over distributed gap: a QFT on a 7-qubit sub-register of an
// 8-qubit register sharded over 4 nodes (6 local qubits) is wider than a
// shard but narrower than the register — before the field-axis four-step
// substrate it fell back to gate level. The Result must now report the
// region on SubstrateFieldFFT, with state parity against a single node.
func TestMidWidthFieldLowersToFieldFFT(t *testing.T) {
	c := prep(8)
	c.Extend(qft.Circuit(7))
	tgt := backend.Target{NumQubits: 8, Kind: backend.Cluster, Nodes: 4,
		FuseWidth: 4, Emulate: recognize.Auto}

	b, err := backend.New(tgt)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	x, err := backend.Compile(c, b.Target())
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Emulated {
		if r.Kind == "qft" && r.Substrate == cluster.SubstrateFieldFFT {
			found = true
		}
	}
	if !found {
		t.Fatalf("mid-width QFT field did not lower to %s: %+v",
			cluster.SubstrateFieldFFT, res.Emulated)
	}

	ref, err := backend.New(backend.Target{NumQubits: 8, Emulate: recognize.Auto})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	x, err = backend.Compile(c, ref.Target())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(x); err != nil {
		t.Fatal(err)
	}
	if d := b.State().MaxDiff(ref.State()); d > 1e-10 {
		t.Fatalf("field-FFT state diverges from single node by %g", d)
	}
}

// TestAutoSelectionIgnoresTheHost compiles one auto circuit under two
// environments: an empty user cache directory, and one holding a
// qemu-repro/calibration.json of plausible constants unlike the model's,
// named by QEMU_CALIBRATION_FILE too, the cache older builds read. The
// selector prices from one table on every host, so both selections — the
// chosen shape, its predicted cost and every region verdict — are equal.
func TestAutoSelectionIgnoresTheHost(t *testing.T) {
	c := qft.Circuit(14)
	compile := func() *backend.Selection {
		t.Helper()
		x, err := backend.Compile(c, backend.Target{NumQubits: c.NumQubits, Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		return x.Selection
	}

	t.Setenv("QEMU_CALIBRATION_FILE", "")
	t.Setenv("XDG_CACHE_HOME", t.TempDir())
	clean := compile()

	cache := t.TempDir()
	file := filepath.Join(cache, "qemu-repro", "calibration.json")
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		t.Fatal(err)
	}
	stale := `{"source": "calibrated", "sweep_ns": 1.01, "diag_ns": 0.65, "perm_ns": 1.04, "fft_ns": 0.31, "remap_ns": 0.67, "fill_ns": 1.04}`
	if err := os.WriteFile(file, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("XDG_CACHE_HOME", cache)
	t.Setenv("QEMU_CALIBRATION_FILE", file)
	cached := compile()

	if clean.Chosen != cached.Chosen {
		t.Errorf("chosen target moved with the host's files: %+v, then %+v", clean.Chosen, cached.Chosen)
	}
	if clean.Cost != cached.Cost {
		t.Errorf("predicted cost moved with the host's files: %g s, then %g s", clean.Cost, cached.Cost)
	}
	if len(clean.Verdicts) == 0 || !reflect.DeepEqual(clean.Verdicts, cached.Verdicts) {
		t.Errorf("region verdicts moved with the host's files (or none were made):\n%+v\n%+v", clean.Verdicts, cached.Verdicts)
	}
}
