package qasm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// TestMalformedInputErrorsNotPanics covers the crash classes of the
// hardening sweep: every case must return a line-numbered error, never
// panic.
func TestMalformedInputErrorsNotPanics(t *testing.T) {
	cases := []struct {
		in   string
		want string // substring of the error
	}{
		{"qubits\n", "line 1"},                            // bare directive: used to panic index-out-of-range
		{"qubits 2 3\n", "line 1"},                        // excess arguments
		{"qubits 2\nctrl 0 : x 0\n", "duplicate qubit 0"}, // control == target: used to panic in the kernels
		{"qubits 3\nctrl 1 1 : x 0\n", "duplicate qubit"}, // duplicated control in the prefix
		{"qubits 3\nctrl 1 : cnot 1 0\n", "duplicate"},    // prefix control collides with gate control
		{"qubits 2\ncnot 0 0\n", "duplicate qubit 0"},     // self-controlled gate form
		{"qubits 2\ntoffoli 0 0 1\n", "duplicate"},        // duplicated toffoli controls
		{"qubits 2\nswap 1 1\n", "duplicate"},             // degenerate swap
		{"qubits 1\nrz 0 --1\n", "more than one sign"},    // sign stacking silently parsed as +1
		{"qubits 1\nrz 0 -+1\n", "more than one sign"},    // mixed sign stacking
		{"qubits 1\nrz 0 pi/-2\n", "bad angle"},           // signed divisor
		{"qubits 1\nrz 0 pi/0\n", "bad angle"},            // zero divisor
		{"qubits 1\nrz 0 inf\n", "bad angle"},             // non-finite angle
		{"qubits 1\nrz 0 nan\n", "bad angle"},             // non-finite angle
		{"qubits 1\nregion\n", "region without a name"},   // bare region
		{"qubits 1\nregion qft x\n", "bad region"},        // non-numeric region arg
		{"qubits 1\nregion qft 0 1\nx 0\n", "never closed"},
		{"qubits 1\nendregion\n", "endregion without"},
		{"qubits 1\nregion a\nregion b\n", "nested region"},
		{"qubits 1\nendregion 3\n", "takes no arguments"},
		{"region qft 0 1\n", "gate before qubits"},
		// Wide registers: the duplicate check must not lose qubits >= 64
		// to a 64-bit mask overflow.
		{"qubits 100\nctrl 70 70 : x 0\n", "duplicate qubit 70"},
		{"qubits 100\nctrl 70 : x 70\n", "duplicate qubit 70"},
	}
	for _, tc := range cases {
		c, err := ParseString(tc.in)
		if err == nil {
			t.Errorf("accepted %q (got %d gates)", tc.in, c.Len())
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parse %q: error %q does not mention %q", tc.in, err, tc.want)
		}
	}
}

// TestSignedAnglesParseCorrectly pins the single-sign forms that must
// keep working after the sign-stacking fix.
func TestSignedAnglesParseCorrectly(t *testing.T) {
	c, err := ParseString("qubits 1\nphase 0 -1\nphase 0 -pi/4\nphase 0 -pi\nphase 0 +0.5\n")
	if err != nil {
		t.Fatal(err)
	}
	wants := []float64{-1, -0.7853981633974483, -3.141592653589793, 0.5}
	for i, w := range wants {
		if got := phaseAngle(c.Gates[i].Matrix[3]); !approx(got, w) {
			t.Errorf("gate %d: angle %g, want %g", i, got, w)
		}
	}
}

func approx(a, b float64) bool { d := a - b; return d < 1e-12 && d > -1e-12 }

func TestRegionRoundTrip(t *testing.T) {
	in := "qubits 4\nregion qft 0 3\nh 2\ncr 1 2 pi/2\ncr 0 2 pi/4\nh 1\ncr 0 1 pi/2\nh 0\ncnot 0 2\ncnot 2 0\ncnot 0 2\nendregion\nx 3\n"
	c, err := ParseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Regions) != 1 {
		t.Fatalf("parsed %d regions, want 1", len(c.Regions))
	}
	r := c.Regions[0]
	if r.Name != "qft" || r.Lo != 0 || r.Hi != 9 || len(r.Args) != 2 || r.Args[0] != 0 || r.Args[1] != 3 {
		t.Fatalf("region parsed wrong: %+v", r)
	}
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseString(sb.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, sb.String())
	}
	if len(c2.Regions) != 1 || fmt.Sprint(c2.Regions[0]) != fmt.Sprint(r) {
		t.Fatalf("region did not round-trip: %+v vs %+v\n%s", c2.Regions, r, sb.String())
	}
}

// randomWritableCircuit draws gates uniformly over the full supported
// gate set — including sdg/tdg, rotations, cr and multi-control ctrl
// prefixes — with pairwise-distinct qubits per gate, plus an annotated
// region over a random span.
func randomWritableCircuit(n uint, count int, src *rng.Source) *circuit.Circuit {
	c := circuit.New(n)
	pick := func(exclude uint64) uint {
		for {
			q := uint(src.Intn(int(n)))
			if exclude&(1<<q) == 0 {
				return q
			}
		}
	}
	for i := 0; i < count; i++ {
		q := pick(0)
		angle := src.Float64()*6 - 3
		switch src.Intn(16) {
		case 0:
			c.Append(gates.X(q))
		case 1:
			c.Append(gates.Y(q))
		case 2:
			c.Append(gates.Z(q))
		case 3:
			c.Append(gates.H(q))
		case 4:
			c.Append(gates.S(q))
		case 5:
			c.Append(gates.T(q))
		case 6:
			c.Append(gates.S(q).Dagger())
		case 7:
			c.Append(gates.T(q).Dagger())
		case 8:
			c.Append(gates.Rx(q, angle))
		case 9:
			c.Append(gates.Ry(q, angle))
		case 10:
			c.Append(gates.Rz(q, angle))
		case 11:
			c.Append(gates.Phase(q, angle))
		case 12:
			c.Append(gates.CNOT(pick(1<<q), q))
		case 13:
			c.Append(gates.CR(pick(1<<q), q, angle))
		case 14:
			o := pick(1 << q)
			c.Append(gates.Toffoli(pick(1<<q|1<<o), o, q))
		default:
			// Multi-control ctrl prefix over a random base gate.
			base := []gates.Gate{gates.H(q), gates.X(q), gates.Y(q),
				gates.Phase(q, angle), gates.Rz(q, angle)}[src.Intn(5)]
			used := uint64(1) << q
			nc := 1 + src.Intn(3)
			var cs []uint
			for len(cs) < nc && uint(len(cs))+1 < n {
				cq := pick(used)
				used |= 1 << cq
				cs = append(cs, cq)
			}
			c.Append(base.WithControls(cs...))
		}
	}
	if c.Len() > 2 {
		lo := src.Intn(c.Len() - 1)
		hi := lo + 1 + src.Intn(c.Len()-lo-1)
		c.Annotate(circuit.Region{Name: "opaque", Args: []uint64{uint64(lo)}, Lo: lo, Hi: hi})
	}
	return c
}

// TestWriteParseRoundTripProperty is the Write∘Parse property test: for
// random circuits over the full supported gate set, the round-tripped
// circuit must act identically on random states and preserve regions.
func TestWriteParseRoundTripProperty(t *testing.T) {
	n := uint(5)
	for trial := 0; trial < 40; trial++ {
		src := rng.New(uint64(1000 + trial))
		c := randomWritableCircuit(n, 30, src)
		var sb strings.Builder
		if err := Write(&sb, c); err != nil {
			t.Fatalf("trial %d: write failed: %v\n%v", trial, err, c)
		}
		c2, err := ParseString(sb.String())
		if err != nil {
			t.Fatalf("trial %d: re-parse failed: %v\n%s", trial, err, sb.String())
		}
		if c2.NumQubits != c.NumQubits || c2.Len() != c.Len() {
			t.Fatalf("trial %d: shape changed: %d/%d qubits, %d/%d gates",
				trial, c2.NumQubits, c.NumQubits, c2.Len(), c.Len())
		}
		if len(c2.Regions) != len(c.Regions) {
			t.Fatalf("trial %d: regions changed: %v vs %v", trial, c2.Regions, c.Regions)
		}
		for i, r := range c.Regions {
			if fmt.Sprint(c2.Regions[i]) != fmt.Sprint(r) {
				t.Fatalf("trial %d: region %d changed: %+v vs %+v", trial, i, c2.Regions[i], r)
			}
		}
		init := statevec.NewRandom(n, src)
		a, b := init.Clone(), init.Clone()
		c.Run(a)
		c2.Run(b)
		if d := a.MaxDiff(b); d > 1e-10 {
			t.Fatalf("trial %d: round-tripped circuit acts differently: %g\n%s", trial, d, sb.String())
		}
		// Barriers are accepted and ignored: sprinkling them through the
		// written text must parse back to the identical circuit.
		lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
		withBarriers := lines[:1:1]
		withBarriers = append(withBarriers, "barrier")
		for i, l := range lines[1:] {
			withBarriers = append(withBarriers, l)
			if i%3 == 0 {
				withBarriers = append(withBarriers, fmt.Sprintf("barrier 0 %d", n-1))
			}
		}
		c3, err := ParseString(strings.Join(withBarriers, "\n") + "\n")
		if err != nil {
			t.Fatalf("trial %d: barrier-sprinkled text failed to parse: %v", trial, err)
		}
		if c3.Len() != c2.Len() || len(c3.Regions) != len(c2.Regions) {
			t.Fatalf("trial %d: barriers changed the circuit: %d/%d gates, %d/%d regions",
				trial, c3.Len(), c2.Len(), len(c3.Regions), len(c2.Regions))
		}
	}
}

// TestBarrierAcceptedAndIgnored pins the barrier contract: bare and
// qubit-listed barriers parse to nothing, malformed qubit arguments still
// get line-numbered errors.
func TestBarrierAcceptedAndIgnored(t *testing.T) {
	c, err := ParseString("qubits 3\nbarrier\nh 0\nbarrier 0 1 2\ncnot 0 1\nbarrier 2\n")
	if err != nil {
		t.Fatalf("barrier program rejected: %v", err)
	}
	if c.Len() != 2 {
		t.Fatalf("barriers contributed gates: %d, want 2", c.Len())
	}
	for _, bad := range []string{
		"qubits 2\nbarrier 5\n",
		"qubits 2\nbarrier x\n",
		"barrier\n",
	} {
		if _, err := ParseString(bad); err == nil {
			t.Fatalf("malformed barrier accepted: %q", bad)
		} else if !strings.Contains(err.Error(), "line") && !strings.Contains(err.Error(), "qubits directive") {
			t.Fatalf("barrier error lost its line number: %v", err)
		}
	}
}
