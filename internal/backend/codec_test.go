package backend_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/rng"
)

// codecTargets are the shapes the round-trip property runs under: the
// paper's fused simulator with emulation, and the distributed engine at
// P ∈ {2, 4} so communication schedules are exercised too.
func codecTargets(n uint) []backend.Target {
	return []backend.Target{
		{NumQubits: n, FuseWidth: 3, Emulate: recognize.Auto},
		{NumQubits: n, Kind: backend.Cluster, Nodes: 2, FuseWidth: 4, Emulate: recognize.Auto},
		{NumQubits: n, Kind: backend.Cluster, Nodes: 4, Emulate: recognize.Auto},
	}
}

// randomCircuit draws a circuit over the full gate set — single-qubit
// rotations, controlled and multi-controlled gates — seeded so failures
// reproduce, with a QFT block spliced in so recognition has structure to
// find and the decoder has an emulated region to round-trip.
func randomCircuit(r *rand.Rand, n uint) *circuit.Circuit {
	c := circuit.New(n)
	pick := func() uint { return uint(r.Intn(int(n))) }
	for i := 0; i < 40; i++ {
		q := pick()
		switch r.Intn(8) {
		case 0:
			c.Append(gates.H(q))
		case 1:
			c.Append(gates.Phase(q, r.Float64()*6))
		case 2:
			c.Append(gates.Rx(q, r.Float64()*6))
		case 3:
			c.Append(gates.Ry(q, r.Float64()*6))
		case 4:
			t := pick()
			if t != q {
				c.Append(gates.CNOT(q, t))
			}
		case 5:
			t := pick()
			if t != q {
				c.Append(gates.CR(q, t, r.Float64()*6))
			}
		case 6:
			// Multi-controlled gate on up to three distinct controls.
			g := gates.Phase(q, r.Float64()*6)
			var ctrls []uint
			for len(ctrls) < 1+r.Intn(3) {
				ct := pick()
				ok := ct != q
				for _, c0 := range ctrls {
					if c0 == ct {
						ok = false
					}
				}
				if ok {
					ctrls = append(ctrls, ct)
				}
			}
			c.Append(g.WithControls(ctrls...))
		case 7:
			if r.Intn(2) == 0 {
				c.Extend(qft.Circuit(n))
			} else {
				c.Append(gates.T(pick()))
			}
		}
	}
	return c
}

// checkRoundTrip is the property: Compile → Encode → Decode yields an
// executable whose plan summary matches the original exactly and whose
// execution matches state-for-state and draw-for-draw.
func checkRoundTrip(t *testing.T, name string, c *circuit.Circuit, tgt backend.Target) {
	t.Helper()
	x, err := backend.Compile(c, tgt)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	data, err := x.Encode()
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	y, err := backend.Decode(data)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}

	// The decoded executable must plan identically: same units, same
	// emulated substrates, same fusion and communication budgets.
	if y.NumGates != x.NumGates || y.NumQubits != x.NumQubits {
		t.Fatalf("%s: decoded shape %d gates/%d qubits, want %d/%d",
			name, y.NumGates, y.NumQubits, x.NumGates, x.NumQubits)
	}
	if y.EmulatedGates != x.EmulatedGates || y.FusedBlocks != x.FusedBlocks ||
		y.PlannedRemaps != x.PlannedRemaps || y.PlannedRounds != x.PlannedRounds {
		t.Fatalf("%s: decoded plan summary (%d emu, %d fused, %d remaps, %d rounds) diverges from (%d, %d, %d, %d)",
			name, y.EmulatedGates, y.FusedBlocks, y.PlannedRemaps, y.PlannedRounds,
			x.EmulatedGates, x.FusedBlocks, x.PlannedRemaps, x.PlannedRounds)
	}
	if len(y.Units) != len(x.Units) {
		t.Fatalf("%s: decoded %d units, want %d", name, len(y.Units), len(x.Units))
	}
	for i := range x.Units {
		a, b := &x.Units[i], &y.Units[i]
		if a.Lo != b.Lo || a.Hi != b.Hi || a.Substrate != b.Substrate ||
			(a.Op == nil) != (b.Op == nil) {
			t.Fatalf("%s: unit %d mismatch: [%d,%d) %q vs [%d,%d) %q",
				name, i, b.Lo, b.Hi, b.Substrate, a.Lo, a.Hi, a.Substrate)
		}
		if a.Op != nil && a.Op.Kind() != b.Op.Kind() {
			t.Fatalf("%s: unit %d decoded as %s, want %s", name, i, b.Op.Kind(), a.Op.Kind())
		}
	}
	if len(y.Skipped) != len(x.Skipped) {
		t.Fatalf("%s: decoded %d skips, want %d", name, len(y.Skipped), len(x.Skipped))
	}

	// Execution parity: state to 1e-10, identical emulated-region
	// substrates and communication rounds, draw-for-draw equal samples.
	b1, err := backend.New(tgt)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := backend.New(tgt)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := b1.Run(x)
	if err != nil {
		t.Fatalf("%s: run original: %v", name, err)
	}
	r2, err := b2.Run(y)
	if err != nil {
		t.Fatalf("%s: run decoded: %v", name, err)
	}
	if d := b1.State().MaxDiff(b2.State()); d > 1e-10 {
		t.Fatalf("%s: decoded executable diverges by %g", name, d)
	}
	if len(r1.Emulated) != len(r2.Emulated) {
		t.Fatalf("%s: decoded run emulated %d regions, original %d",
			name, len(r2.Emulated), len(r1.Emulated))
	}
	for i := range r1.Emulated {
		if r1.Emulated[i].Substrate != r2.Emulated[i].Substrate {
			t.Fatalf("%s: region %d ran on %q, original on %q",
				name, i, r2.Emulated[i].Substrate, r1.Emulated[i].Substrate)
		}
	}
	if r1.Comm != r2.Comm {
		t.Fatalf("%s: decoded run paid %+v, original %+v", name, r2.Comm, r1.Comm)
	}
	a := b1.SampleMany(100, rng.New(42))
	b := b2.SampleMany(100, rng.New(42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: sample streams diverge at draw %d", name, i)
		}
	}
}

// TestCodecRoundTripWorkloads round-trips the acceptance workloads —
// QFT, adder, multiplier, Grover, all with annotated regions and fused
// blocks — through every codec target shape.
func TestCodecRoundTripWorkloads(t *testing.T) {
	for _, w := range parityWorkloads() {
		for _, tgt := range codecTargets(w.c.NumQubits) {
			checkRoundTrip(t, w.name+"/"+tgt.Kind.String(), w.c, tgt)
		}
	}
}

// TestCodecRoundTripRandom is the property over random circuits: ten
// seeded draws over the full gate set, each round-tripped under every
// target shape.
func TestCodecRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(r, 8)
		for _, tgt := range codecTargets(8) {
			checkRoundTrip(t, tgt.Kind.String(), c, tgt)
		}
	}
}

// encodeQFTArtifact compiles a representative circuit (QFT region plus
// gate-level prep, cluster target) and returns its encoding.
func encodeQFTArtifact(t *testing.T) []byte {
	t.Helper()
	c := prep(8)
	c.Extend(qft.Circuit(8))
	x, err := backend.Compile(c, backend.Target{
		NumQubits: 8, Kind: backend.Cluster, Nodes: 2, FuseWidth: 3, Emulate: recognize.Auto})
	if err != nil {
		t.Fatal(err)
	}
	data, err := x.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCodecTruncation: every strict prefix of a valid artifact must
// decode to an error, never a panic and never a silently-shorter
// executable.
func TestCodecTruncation(t *testing.T) {
	data := encodeQFTArtifact(t)
	for cut := 0; cut < len(data); cut++ {
		if _, err := backend.Decode(data[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", cut, len(data))
		}
	}
}

// TestCodecCorruption: flipping any single byte of the artifact is
// detected — by the magic/version checks in the header or by the crc
// over everything else.
func TestCodecCorruption(t *testing.T) {
	data := encodeQFTArtifact(t)
	for i := range data {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[i] ^= 0x5a
		if _, err := backend.Decode(mut); err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", i, len(data))
		}
	}
}

// TestCodecVersionSkew: an artifact from a future format version is
// rejected with a message naming both versions, before any payload is
// interpreted.
func TestCodecVersionSkew(t *testing.T) {
	data := encodeQFTArtifact(t)
	mut := make([]byte, len(data))
	copy(mut, data)
	mut[4] = byte(backend.CodecVersion + 1) // version u16 follows the 4-byte magic
	mut[5] = 0
	_, err := backend.Decode(mut)
	if err == nil {
		t.Fatal("future-version artifact decoded successfully")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew reported as %q", err)
	}

	if _, err := backend.Decode([]byte("nope")); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic reported as %v", err)
	}
}

// TestRepeatedQubitGatesRejected: a gate whose control is its target, or
// whose controls name one qubit twice, is refused with a *GateQubitError
// wherever it can enter — by Compile from a hand-built circuit (Append
// checks only the register bound), by Decode from a crc-valid artifact
// before it plans the gate, and by the verifier in memory — under a fused
// w=8 target, whose block matrices are built by sweeping a plan through
// the state kernels, as well as the narrow and distributed shapes.
func TestRepeatedQubitGatesRejected(t *testing.T) {
	targets := []backend.Target{
		{Kind: backend.Fused, FuseWidth: 8},
		{FuseWidth: 3, Emulate: recognize.Auto},
		{Kind: backend.Cluster, Nodes: 2, FuseWidth: 4, Emulate: recognize.Auto},
	}
	for _, tc := range []struct {
		name   string
		mutate func(g *gates.Gate)
	}{
		{"control equals target", func(g *gates.Gate) { g.Controls = []uint{g.Target} }},
		{"repeated control", func(g *gates.Gate) { g.Controls = []uint{g.Controls[0], g.Controls[0]} }},
	} {
		for _, tgt := range targets {
			name := tc.name + "/" + tgt.Kind.String()
			tgt.NumQubits = 8
			requireQubitError := func(what string, err error) {
				t.Helper()
				var qe *backend.GateQubitError
				if !errors.As(err, &qe) {
					t.Fatalf("%s: %s returned %v, want a *GateQubitError", name, what, err)
				}
			}
			// The gate to mutate: a CNOT in the middle of the circuit.
			c := circgen.Brickwork(rng.New(27), 8, 20)
			k := c.Len() / 2
			for len(c.Gates[k].Controls) != 1 {
				k++
			}

			bad := &circuit.Circuit{NumQubits: 8, Gates: append([]gates.Gate(nil), c.Gates...)}
			bad.Gates[k].Controls = append([]uint(nil), bad.Gates[k].Controls...)
			tc.mutate(&bad.Gates[k])
			_, err := backend.Compile(bad, tgt)
			requireQubitError("Compile", err)

			x, err := backend.Compile(c, tgt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range x.Units {
				if u := &x.Units[i]; u.Op == nil && u.Lo <= k && k < u.Hi {
					tc.mutate(&u.Gates[k-u.Lo])
				}
			}
			requireQubitError("VerifyExecutable", backend.VerifyExecutable(x))
			data, err := x.Encode()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			_, err = backend.Decode(data)
			requireQubitError("Decode", err)
		}
	}
}

// TestFingerprint pins the cache-key contract: stable across calls,
// insensitive to the Workers run-time knob, sensitive to every
// artifact-shaping input (gates, regions, target kind, node count).
func TestFingerprint(t *testing.T) {
	c := prep(8)
	c.Extend(qft.Circuit(8))
	tgt := backend.Target{NumQubits: 8, FuseWidth: 3, Emulate: recognize.Auto}

	fp1, err := backend.Fingerprint(c, tgt)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := backend.Fingerprint(c, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatal("fingerprint not stable across calls")
	}

	workers := tgt
	workers.Workers = 7
	if fp, _ := backend.Fingerprint(c, workers); fp != fp1 {
		t.Fatal("Workers (a run-time knob) changed the fingerprint")
	}

	distinct := map[string]string{"base": fp1}
	gateChange := prep(8)
	gateChange.Extend(qft.Circuit(8))
	gateChange.Append(gates.T(0))
	if fp, _ := backend.Fingerprint(gateChange, tgt); fp != "" {
		distinct["extra gate"] = fp
	}
	regionChange := prep(8)
	regionChange.Extend(qft.Circuit(8))
	regionChange.Annotate(circuit.Region{Name: "custom", Lo: 0, Hi: 2})
	if fp, _ := backend.Fingerprint(regionChange, tgt); fp != "" {
		distinct["extra region"] = fp
	}
	cl := backend.Target{NumQubits: 8, Kind: backend.Cluster, Nodes: 2, FuseWidth: 3, Emulate: recognize.Auto}
	if fp, _ := backend.Fingerprint(c, cl); fp != "" {
		distinct["cluster target"] = fp
	}
	seen := map[string]string{}
	for what, fp := range distinct {
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s and %s share a fingerprint", what, prev)
		}
		seen[fp] = what
	}
}
