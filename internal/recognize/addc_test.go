package recognize_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/recognize"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// buildAddc returns the carry-out adder circuit on 2w+2 qubits with some
// unannotated preparation gates in front.
func buildAddc(w uint, annotated bool) *circuit.Circuit {
	c := circuit.New(2*w + 2)
	revlib.AdderWithCarryOut(c, revlib.Seq(0, w), revlib.Seq(w, w), 2*w, 2*w+1)
	if !annotated {
		c.Regions = nil
	}
	return c
}

// TestAdderWithCarryOutRecognition covers both recognition sources: the
// emitted "addc" annotation (Annotated mode) and the pattern matcher
// (Auto mode on a stripped circuit), each verified by the brute-force
// unitary check and agreeing with gate-level execution.
func TestAdderWithCarryOutRecognition(t *testing.T) {
	for _, w := range []uint{1, 2, 3} {
		for _, tc := range []struct {
			name      string
			annotated bool
			mode      recognize.Mode
		}{
			{"annotated", true, recognize.Annotated},
			{"matched", false, recognize.Auto},
		} {
			c := buildAddc(w, tc.annotated)
			plan := recognize.Analyze(c, recognize.DefaultOptions(tc.mode))
			ops := plan.Ops()
			if len(ops) != 1 || ops[0].Kind() != "addc" {
				t.Fatalf("w=%d %s: recognised %v, want one addc op (skipped: %+v)",
					w, tc.name, ops, plan.Skipped)
			}
			if !ops[0].Verified {
				t.Fatalf("w=%d %s: addc op escaped the brute-force check (support %d qubits)",
					w, tc.name, 2*w+2)
			}
			src := rng.New(uint64(100*w) + 7)
			init := statevec.NewRandom(c.NumQubits, src)
			ref, emu := init.Clone(), init.Clone()
			c.Run(ref)
			runPlan(c, plan, emu)
			if d := ref.MaxDiff(emu); d > eps {
				t.Fatalf("w=%d %s: addc shortcut diverges from gates by %g", w, tc.name, d)
			}
		}
	}
}

// TestAdderWithCarryOutNotConfusedWithAdder checks the plain adder still
// matches as "add" (the carry-out matcher must not steal it) and that an
// addc stream is not mis-recognised as a narrower plain adder.
func TestAdderWithCarryOutNotConfusedWithAdder(t *testing.T) {
	const w = 3
	plain := circuit.New(2*w + 1)
	revlib.Adder(plain, revlib.Seq(0, w), revlib.Seq(w, w), 2*w)
	plain.Regions = nil
	ops := recognize.Analyze(plain, recognize.DefaultOptions(recognize.Auto)).Ops()
	if len(ops) != 1 || ops[0].Kind() != "add" {
		t.Fatalf("plain adder recognised as %v", ops)
	}

	carry := buildAddc(w, false)
	ops = recognize.Analyze(carry, recognize.DefaultOptions(recognize.Auto)).Ops()
	if len(ops) != 1 || ops[0].Kind() != "addc" {
		t.Fatalf("carry-out adder recognised as %v", ops)
	}
	if ops[0].Lo != 0 || ops[0].Hi != carry.Len() {
		t.Fatalf("addc op covers [%d,%d), want the whole %d-gate circuit",
			ops[0].Lo, ops[0].Hi, carry.Len())
	}
}

// TestAddcAnnotationValidation pins the region argument checks.
func TestAddcAnnotationValidation(t *testing.T) {
	c := buildAddc(2, false)
	// Wrong arity: a duplicate qubit across registers.
	c.Annotate(circuit.Region{Name: "addc",
		Args: []uint64{2, 0, 1, 1, 3, 4, 5}, Lo: 0, Hi: c.Len()})
	plan := recognize.Analyze(c, recognize.DefaultOptions(recognize.Annotated))
	if len(plan.Ops()) != 0 || len(plan.Skipped) != 1 {
		t.Fatalf("lying addc annotation not skipped: ops %v, skipped %+v",
			plan.Ops(), plan.Skipped)
	}
}
