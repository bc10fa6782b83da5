package qasm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/rng"
	"repro/internal/statevec"
)

func TestParseBasic(t *testing.T) {
	c, err := ParseString(`
qubits 3
# Bell pair plus spectator
h 0
cnot 0 1
x 2
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 3 || c.Len() != 3 {
		t.Fatalf("parsed %d qubits, %d gates", c.NumQubits, c.Len())
	}
	if c.Gates[1].Name != "X" || c.Gates[1].Controls[0] != 0 || c.Gates[1].Target != 1 {
		t.Fatalf("cnot parsed wrong: %v", c.Gates[1])
	}
}

func TestParseAngles(t *testing.T) {
	c, err := ParseString("qubits 1\nrz 0 pi/2\nphase 0 -pi/4\nrx 0 1.25\n")
	if err != nil {
		t.Fatal(err)
	}
	want := gates.Rz(0, math.Pi/2).Matrix
	if c.Gates[0].Matrix != want {
		t.Error("pi/2 angle parsed wrong")
	}
	wantP := gates.Phase(0, -math.Pi/4).Matrix
	if c.Gates[1].Matrix != wantP {
		t.Error("-pi/4 angle parsed wrong")
	}
}

func TestParseCtrlPrefix(t *testing.T) {
	c, err := ParseString("qubits 4\nctrl 2 3 : h 0\n")
	if err != nil {
		t.Fatal(err)
	}
	g := c.Gates[0]
	if len(g.Controls) != 2 || g.Controls[0] != 2 || g.Controls[1] != 3 {
		t.Fatalf("ctrl prefix parsed wrong: %v", g)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"h 0\n",                    // gate before qubits
		"qubits 2\nqubits 2\n",     // duplicate directive
		"qubits 2\nh 5\n",          // qubit out of range
		"qubits 2\nfrobnicate 0\n", // unknown gate
		"qubits 2\nrz 0\n",         // missing angle
		"qubits 2\nctrl 1 h 0\n",   // ctrl without colon
		"qubits 0\n",               // zero qubits
		"qubits 2\ncnot 0\n",       // wrong arity
		"qubits 2\nrz 0 bananas\n", // bad angle
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("accepted invalid program %q", s)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	// Write then re-parse the QFT circuit; both must act identically.
	n := uint(4)
	c := qft.Circuit(n)
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseString(sb.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, sb.String())
	}
	src := rng.New(3)
	st := statevec.NewRandom(n, src)
	a := st.Clone()
	b := st.Clone()
	c.Run(a)
	c2.Run(b)
	if d := a.MaxDiff(b); d > 1e-10 {
		t.Fatalf("round-tripped circuit acts differently: %g", d)
	}
}

func TestSwapExpansion(t *testing.T) {
	c, err := ParseString("qubits 2\nswap 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("swap expanded to %d gates", c.Len())
	}
	st := statevec.NewBasis(2, 1)
	c.Run(st)
	if st.Amplitude(2) != 1 {
		t.Fatal("swap did not exchange the qubits")
	}
}

func TestDaggerGates(t *testing.T) {
	c, err := ParseString("qubits 1\nt 0\ntdg 0\ns 0\nsdg 0\n")
	if err != nil {
		t.Fatal(err)
	}
	st := statevec.New(1)
	st.ApplyHadamard(0)
	orig := st.Clone()
	c.Run(st)
	if d := st.MaxDiff(orig); d > 1e-12 {
		t.Fatal("t tdg s sdg is not identity")
	}
}
