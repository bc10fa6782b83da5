package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/revlib"
	"repro/internal/statevec"
)

// The experiment drivers are exercised with tiny configurations: the goal
// is to assert the qualitative shape the paper reports (who wins), not
// absolute numbers.

// arithSpeedup is the simulation/emulation ratio the Figure 1-2 tests assert
// on: the row's own, both sides timed as qemu-bench times them. Under the race
// detector that ratio measures the detector — the served simulator's fused
// blocks are uninstrumented assembly, the emulator's permutation an
// instrumented Go loop (0.3x at m=4, 0.7x at m=6, 0.2x at m=7, so no size
// rescues it) — and the same assertions are made against the circuit run gate
// by gate through the Go kernels, which the detector instruments like the
// emulator.
func arithSpeedup(row ArithRow, circ *circuit.Circuit, prep func(st *statevec.State, m uint)) float64 {
	if !raceEnabled {
		return row.Speedup
	}
	var st *statevec.State
	tSim := timeIt(shortTime, func() {
		st = statevec.New(row.NQubits)
		prep(st, row.M)
	}, func() { circ.Run(st) })
	return tSim / row.TEmu
}

func TestFig1Shape(t *testing.T) {
	rows := Fig1(Fig1Config{MinM: 2, MaxSimM: 4, MaxEmuM: 5})
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.TEmu <= 0 {
			t.Fatalf("m=%d: no emulation time", r.M)
		}
		if r.M <= 4 && r.TSim <= 0 {
			t.Fatalf("m=%d: no simulation time", r.M)
		}
	}
	// Emulation must win by m=4 and the advantage must grow with m.
	speedup := func(r ArithRow) float64 {
		return arithSpeedup(r, revlib.BuildMultiplier(revlib.NewMultiplierLayout(r.M)).Lower(1), prepMulInput)
	}
	s2, s4 := speedup(rows[0]), speedup(rows[2])
	t.Logf("speedup %.1fx at m=2, %.1fx at m=4 (race detector: %v)", s2, s4, raceEnabled)
	if s4 <= 1 {
		t.Errorf("m=4: emulation not faster (speedup %v)", s4)
	}
	if s4 < s2 {
		t.Errorf("speedup shrank with m: %v -> %v", s2, s4)
	}
	s := FormatArith("Figure 1", rows)
	if !strings.Contains(s, "speedup") {
		t.Error("formatting lost the speedup column")
	}
}

func TestFig2Shape(t *testing.T) {
	rows := Fig2(Fig2Config{MinM: 2, MaxSimM: 3, MaxEmuM: 4})
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	s3 := arithSpeedup(rows[1], revlib.BuildDivider(revlib.NewDividerLayout(3)).Lower(1), prepDivInput)
	t.Logf("speedup %.1fx at m=3 (race detector: %v)", s3, raceEnabled)
	if s3 <= 1 {
		t.Errorf("m=3: division emulation not faster (speedup %v)", s3)
	}
	// Division uses 4m+2 qubits (work overhead of Figure 2).
	for _, r := range rows {
		if r.NQubits != 4*r.M+2 {
			t.Errorf("m=%d: %d qubits, want %d", r.M, r.NQubits, 4*r.M+2)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	// 2^14 amplitudes per node: at the 2^10 this test used to run at, the
	// one-node row is a tie on the served path (0.9-1.2x, both sides ~40 µs).
	rows := Fig3(WeakScalingConfig{LocalQubits: 14, MaxNodes: 4})
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.TSim <= 0 || r.TEmu <= 0 {
			t.Fatal("missing timing")
		}
		if r.Speedup <= 1 {
			t.Errorf("p=%d: FFT emulation not faster than QFT simulation (%.2fx)",
				r.Nodes, r.Speedup)
		}
		if r.ModelTSim <= r.ModelTEmu {
			t.Errorf("p=%d: model disagrees with the paper's direction", r.Nodes)
		}
	}
	// Multi-node QFT simulation must communicate; single-node must not.
	if rows[0].SimBytes != 0 {
		t.Error("single node communicated")
	}
	if rows[len(rows)-1].SimBytes == 0 {
		t.Error("multi-node QFT simulation did not communicate")
	}
	_ = FormatFig3(rows)
}

func TestFig4Shape(t *testing.T) {
	rows := Fig4(WeakScalingConfig{LocalQubits: 10, MaxNodes: 4})
	last := rows[len(rows)-1]
	// The qHiPSTER-class baseline must move strictly more bytes (it
	// exchanges for the diagonal CR gates too).
	if last.EmuBytes <= last.SimBytes {
		t.Errorf("baseline moved %d bytes, ours %d — optimisation invisible",
			last.EmuBytes, last.SimBytes)
	}
	_ = FormatFig4(rows)
}

func TestFig5And6Shape(t *testing.T) {
	rows := Fig5(SingleNodeConfig{MinQubits: 10, MaxQubits: 12})
	for _, r := range rows {
		if r.TSparse <= r.TOurs {
			t.Errorf("n=%d: sparse-matrix baseline not slower than ours", r.Qubits)
		}
	}
	rows = Fig6(SingleNodeConfig{MinQubits: 10, MaxQubits: 12})
	for _, r := range rows {
		if r.TSparse <= r.TOurs {
			t.Errorf("n=%d (entangler): sparse baseline not slower", r.Qubits)
		}
	}
	_ = FormatSingleNode("x", rows)
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(Table2Config{MinN: 4, MaxMeasuredN: 6, MaxN: 8})
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.Gates != 4*int(r.NQubits)-3 {
			t.Errorf("n=%d: G=%d", r.NQubits, r.Gates)
		}
		if r.CrossSq == 0 || r.CrossEig == 0 {
			t.Errorf("n=%d: missing cross-over", r.NQubits)
		}
		if i > 0 && r.CrossSq+2 < rows[i-1].CrossSq {
			t.Errorf("squaring cross-over fell sharply at n=%d", r.NQubits)
		}
		if r.NQubits > 6 && !r.Extrapolated {
			t.Errorf("n=%d should be extrapolated", r.NQubits)
		}
	}
	_ = FormatTable2(rows)
}

func TestMeasure34Shape(t *testing.T) {
	rows := Measure34(10, []int{100, 1000})
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.TExact <= 0 || r.TSample <= 0 {
			t.Fatal("missing timing")
		}
	}
	_ = FormatMeasure(rows)
}

func TestMathFuncShape(t *testing.T) {
	rows := MathFunc(4, 6)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.TEmu <= 0 {
			t.Fatal("missing emulation time")
		}
		// Estimated simulator footprint must explode quadratically in m.
		if i > 0 && r.SimQubits <= rows[i-1].SimQubits {
			t.Error("sim qubit estimate not growing")
		}
	}
	s := FormatMathFunc(rows)
	if !strings.Contains(s, "sin") {
		t.Error("formatting lost the description")
	}
}

func TestTableFormatter(t *testing.T) {
	out := Table([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Error("missing separator")
	}
}

func TestSecsFormatting(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5e-9:  "1.5 ns",
		2.5e-6:  "2.50 µs",
		3.25e-3: "3.25 ms",
		4.5:     "4.500 s",
	}
	for in, want := range cases {
		if got := secs(in); got != want {
			t.Errorf("secs(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestEmulateShape(t *testing.T) {
	rows := Emulate(EmulateConfig{QFTQubits: []uint{8}, MulBits: []uint{3},
		GroverQubits: 8, GroverIters: 2, FuseWidth: 3})
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.TSim <= 0 || r.TEmu <= 0 {
			t.Fatalf("%s: missing timings: %+v", r.Name, r)
		}
		if r.Recognized == "" {
			t.Fatalf("%s: no recognition summary", r.Name)
		}
	}
	// The QFT and multiplier rows must be fully emulated (one shortcut
	// covering every gate of the structured circuit).
	for _, i := range []int{0, 1} {
		if rows[i].EmuGates == 0 || !strings.Contains(rows[i].Recognized,
			fmt.Sprintf("%d/%d gates emulated", rows[i].EmuGates, rows[i].EmuGates)) {
			t.Fatalf("%s: not fully emulated: %s", rows[i].Name, rows[i].Recognized)
		}
	}
	if out := FormatEmulate(rows); !strings.Contains(out, "Emulation dispatch") {
		t.Fatalf("formatter output wrong:\n%s", out)
	}
}
