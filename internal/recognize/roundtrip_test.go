package recognize_test

import (
	"bytes"
	"testing"

	"repro/internal/backend"
	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/experiments"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/revlib"
	"repro/internal/rng"
)

// roundTripCircuits are the circuits TestRegionFormRoundTrip analyses:
// the circgen families, revlib's builders annotated and stripped, the QFT
// family, Grover iterations and a diagonal run.
func roundTripCircuits() map[string]*circuit.Circuit {
	src := rng.New(35)
	cs := map[string]*circuit.Circuit{
		"brickwork":       circgen.Brickwork(src, 6, 3),
		"qft-ladders":     circgen.QFTLadders(src, 7, 3),
		"phase-runs":      circgen.InterruptedPhaseRuns(src, 6, 4),
		"wide-controlled": circgen.WideControlled(src, 6, 2),
		"arithmetic":      circgen.Arithmetic(src, 10, 6),
		"qft":             qft.Circuit(8),
		"qft-noswap":      qft.CircuitNoSwap(7),
		"iqft":            qft.InverseCircuit(6),
		"grover":          experiments.GroverGateLevel(7, 5, 2),
		"multiplier":      revlib.BuildMultiplier(revlib.NewMultiplierLayout(2)),
		"divider":         revlib.BuildDivider(revlib.NewDividerLayout(2)),
	}
	adders := circuit.New(9)
	revlib.Adder(adders, revlib.Seq(0, 2), revlib.Seq(2, 2), 8)
	revlib.Subtractor(adders, revlib.Register{5, 1}, revlib.Register{3, 7}, 0)
	revlib.AdderWithCarryOut(adders, revlib.Seq(4, 2), revlib.Seq(0, 2), 6, 8)
	cs["adders"] = adders
	diag := circuit.New(6)
	diag.Append(gates.T(0), gates.CR(1, 2, 0.7), gates.Rz(3, 1.1), gates.S(1),
		gates.CZ(0, 3), gates.Phase(2, -0.4))
	cs["diagonal-run"] = diag
	for _, name := range []string{"multiplier", "divider", "adders", "qft", "grover"} {
		stripped := *cs[name]
		stripped.Regions = nil
		cs[name+"-stripped"] = &stripped
	}
	return cs
}

// TestRegionFormRoundTrip: every op Analyze finds in Auto mode is its own
// region form's parse, field for field, and every family of the
// vocabulary shows up; every executable compiled from those circuits
// re-encodes to the bytes it was decoded from.
func TestRegionFormRoundTrip(t *testing.T) {
	kinds := map[string]bool{}
	for name, c := range roundTripCircuits() {
		for _, op := range recognize.Analyze(c, recognize.DefaultOptions(recognize.Auto)).Ops() {
			kinds[op.Kind()] = true
			table, _, _ := op.DiagTable()
			back, err := recognize.ParseRegion(c.NumQubits, op.Region(), table)
			if err != nil {
				t.Fatalf("%s: %v: region form %+v does not parse: %v", name, op, op.Region(), err)
			}
			back.Annotated, back.Verified = op.Annotated, op.Verified
			if !recognize.SameOp(back, op) {
				t.Errorf("%s: %v: region form %+v parses to %v", name, op, op.Region(), back)
			}
		}
		for _, tgt := range []backend.Target{
			{NumQubits: c.NumQubits, FuseWidth: 2, Emulate: recognize.Auto},
			{NumQubits: c.NumQubits, Kind: backend.Cluster, Nodes: 2, FuseWidth: 2, Emulate: recognize.Auto},
		} {
			x, err := backend.Compile(c, tgt)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tgt.Kind, err)
			}
			first, err := x.Encode()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tgt.Kind, err)
			}
			y, err := backend.Decode(first)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", name, tgt.Kind, err)
			}
			second, err := y.Encode()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tgt.Kind, err)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("%s/%s: Encode → Decode → Encode changed the artifact (%d bytes, then %d)",
					name, tgt.Kind, len(first), len(second))
			}
		}
	}
	for _, k := range []string{"qft", "add", "sub", "addc", "mul", "div", "diagonal", "phaseflip", "reflect"} {
		if !kinds[k] {
			t.Errorf("no circuit produced a %s op", k)
		}
	}
}
