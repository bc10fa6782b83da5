package backend_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/binio"
	"repro/internal/circuit"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/revlib"
)

// verifyWorkload compiles the representative serve artifact — gate-level
// prep plus a recognised QFT region — under the given target shape.
func verifyWorkload(t *testing.T, tgt backend.Target) *backend.Executable {
	t.Helper()
	c := prep(8)
	c.Extend(qft.Circuit(8))
	tgt.NumQubits = 8
	x, err := backend.Compile(c, tgt)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// findUnit returns the index of the first unit satisfying pred.
func findUnit(t *testing.T, x *backend.Executable, what string, pred func(u *backend.Unit) bool) int {
	t.Helper()
	for i := range x.Units {
		if pred(&x.Units[i]) {
			return i
		}
	}
	t.Fatalf("workload compiled without a %s unit", what)
	return -1
}

// TestVerifyCompiledExecutables: everything Compile emits passes the
// structural verifier, under every codec target shape and for every
// acceptance workload, both bare and keyed by its own fingerprint.
func TestVerifyCompiledExecutables(t *testing.T) {
	for _, w := range parityWorkloads() {
		for _, tgt := range codecTargets(w.c.NumQubits) {
			x, err := backend.Compile(w.c, tgt)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", w.name, tgt.Kind, err)
			}
			if err := backend.VerifyExecutable(x); err != nil {
				t.Errorf("%s/%s: compiled executable fails verification: %v", w.name, tgt.Kind, err)
			}
			if err := backend.VerifyExecutableKey(x, x.SourceKey); err != nil {
				t.Errorf("%s/%s: keyed verification under own key: %v", w.name, tgt.Kind, err)
			}
			wrong := strings.Repeat("ab", 32)
			if err := backend.VerifyExecutableKey(x, wrong); err == nil {
				t.Errorf("%s/%s: keyed verification accepted a foreign key", w.name, tgt.Kind)
			}
		}
	}
}

// TestVerifyMutationCorpus is the semantic-corruption suite: each case
// mutates a freshly compiled executable in a way the codec cannot see —
// Encode recomputes the crc32, so every mutant is a perfectly checksummed
// artifact — and requires that Decode accepts the bytes while
// VerifyExecutable rejects the result. This is exactly the gap the
// verifier exists to close.
func TestVerifyMutationCorpus(t *testing.T) {
	local := backend.Target{FuseWidth: 3, Emulate: recognize.Auto}
	clustered := backend.Target{Kind: backend.Cluster, Nodes: 2, FuseWidth: 3, Emulate: recognize.Auto}
	isOp := func(u *backend.Unit) bool { return u.Op != nil }
	isGate := func(u *backend.Unit) bool { return u.Op == nil }

	cases := []struct {
		name   string
		target backend.Target
		mutate func(t *testing.T, x *backend.Executable)
	}{
		{"source key not hex", local, func(t *testing.T, x *backend.Executable) {
			x.SourceKey = strings.Repeat("Z", 64)
		}},
		{"source key truncated", local, func(t *testing.T, x *backend.Executable) {
			x.SourceKey = x.SourceKey[:40]
		}},
		{"implausible worker cap", local, func(t *testing.T, x *backend.Executable) {
			x.Target.Workers = 1 << 21
		}},
		{"inverted skip range", local, func(t *testing.T, x *backend.Executable) {
			x.Skipped = append(x.Skipped, recognize.Skip{Name: "fake", Lo: 5, Hi: 2, Reason: "planted"})
		}},
		{"skip range past the circuit", local, func(t *testing.T, x *backend.Executable) {
			x.Skipped = append(x.Skipped, recognize.Skip{Name: "fake", Lo: 0, Hi: x.NumGates + 1})
		}},
		{"non-unitary gate matrix", local, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "gate", isGate)
			x.Units[i].Gates[0].Matrix[0] *= 1.5
		}},
		{"op range disagrees with unit", local, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "op", isOp)
			x.Units[i].Op.Hi--
		}},
		{"foreign substrate on local target", local, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "op", isOp)
			x.Units[i].Substrate = "bogus"
		}},
		{"foreign substrate on cluster target", clustered, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "op", isOp)
			x.Units[i].Substrate = "bogus"
		}},
		{"non-unitary gate on cluster target", clustered, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "gate", isGate)
			x.Units[i].Gates[0].Matrix[3] = 0
		}},
		// A planted noise point at an interior gate is valid wire bytes —
		// sorted, in range, probability in [0,1]. Whether it is a valid
		// plan depends on its class and on the unit it lands in: a damping
		// point must close its unit (its branch needs the state at its own
		// gate), and no point may fall inside a recognised op (there are no
		// gates to replay a strike through).
		{"damping point off its unit's last gate", local, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "multi-gate gate-level", func(u *backend.Unit) bool { return u.Op == nil && u.Hi-u.Lo >= 2 })
			plantNoise(x, x.Units[i].Hi-2, circuit.AmplitudeDamping)
		}},
		{"soft point strictly inside an op", local, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "multi-gate op", func(u *backend.Unit) bool { return u.Op != nil && u.Hi-u.Lo >= 2 })
			plantNoise(x, x.Units[i].Hi-2, circuit.FlipX)
		}},
		{"soft point strictly inside an op on a cluster target", clustered, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "multi-gate op", func(u *backend.Unit) bool { return u.Op != nil && u.Hi-u.Lo >= 2 })
			plantNoise(x, x.Units[i].Lo, circuit.Depolarizing)
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := verifyWorkload(t, tc.target)
			tc.mutate(t, x)
			data, err := x.Encode()
			if err != nil {
				t.Fatalf("mutant failed to encode: %v", err)
			}
			y, err := backend.Decode(data)
			if err != nil {
				t.Fatalf("mutant rejected by Decode — the crc accepted it, so this case belongs to the codec tests, not here: %v", err)
			}
			if err := backend.VerifyExecutable(y); err == nil {
				t.Fatal("verifier accepted a semantically corrupt artifact")
			}
		})
	}

	// An op's registers are not reachable in memory, so these mutants are
	// made on the wire: the second register's qubit list is overwritten
	// with the first's and the crc recomputed. Range and shape still hold;
	// the op's map on basis indices is no longer a bijection, which the
	// permutation kernels assume. The op payload check is shared by Decode
	// and the verifier, so the mutant may stop at either — before the fix
	// it passed both and ran.
	arith := backend.Target{FuseWidth: 3, Emulate: recognize.Annotated}
	first, second := revlib.Seq(0, 2), revlib.Seq(2, 2)
	for _, tc := range []struct {
		kind  string
		n     uint
		build func(c *circuit.Circuit)
	}{
		{"add", 5, func(c *circuit.Circuit) { revlib.Adder(c, first, second, 4) }},
		{"sub", 5, func(c *circuit.Circuit) { revlib.Subtractor(c, first, second, 4) }},
		{"addc", 6, func(c *circuit.Circuit) { revlib.AdderWithCarryOut(c, first, second, 4, 5) }},
		{"mul", 7, func(c *circuit.Circuit) { revlib.Multiplier(c, first, second, revlib.Seq(4, 2), 6) }},
		{"div", 6, func(c *circuit.Circuit) {
			revlib.Divider(c, revlib.DividerLayout{M: 1, R: first, B: revlib.Seq(2, 1), Q: revlib.Seq(3, 1), BZ: 4, CarryAnc: 5})
		}},
	} {
		t.Run("overlapping "+tc.kind+" registers", func(t *testing.T) {
			c := circuit.New(tc.n)
			tc.build(c)
			x, err := backend.Compile(c, arith)
			if err != nil {
				t.Fatal(err)
			}
			if i := findUnit(t, x, "op", isOp); x.Units[i].Op.Kind() != tc.kind {
				t.Fatalf("compiled a %s op, want %s", x.Units[i].Op.Kind(), tc.kind)
			}
			data, err := x.Encode()
			if err != nil {
				t.Fatal(err)
			}
			// The divider's first register is twice the width of its
			// others: its mutant makes the quotient the divisor.
			from, to := []uint(second), []uint(first)
			if tc.kind == "div" {
				from, to = []uint{3}, []uint{2}
			}
			data = overwriteQubits(t, data, from, to)
			y, err := backend.Decode(data)
			if err != nil {
				return
			}
			if err := backend.VerifyExecutable(y); err == nil {
				t.Fatal("Decode and the verifier both accepted an op whose registers overlap")
			}
		})
	}

	// The control: the unmutated artifact round-trips and verifies clean
	// under both targets — the corpus rejections above are not the
	// verifier rejecting everything.
	for _, tgt := range []backend.Target{local, clustered} {
		x := verifyWorkload(t, tgt)
		data, err := x.Encode()
		if err != nil {
			t.Fatal(err)
		}
		y, err := backend.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.VerifyExecutable(y); err != nil {
			t.Fatalf("%s: clean round-trip fails verification: %v", tgt.Kind, err)
		}

		// The other half of the noise cases above: the same planted points
		// where they are legal. A soft point inside a gate unit (the unit
		// carries the gates a struck replay needs), and either class on a
		// unit's last gate, op or not.
		for _, ok := range []struct {
			name string
			kind circuit.ChannelKind
			unit func(u *backend.Unit) bool
			back int // the point sits on gate Hi-back
		}{
			{"soft point inside a gate unit", circuit.FlipX, func(u *backend.Unit) bool { return u.Op == nil && u.Hi-u.Lo >= 2 }, 2},
			{"damping point closing a gate unit", circuit.PhaseDamping, func(u *backend.Unit) bool { return u.Op == nil }, 1},
			{"damping point closing an op", circuit.AmplitudeDamping, func(u *backend.Unit) bool { return u.Op != nil }, 1},
		} {
			x := verifyWorkload(t, tgt)
			plantNoise(x, x.Units[findUnit(t, x, ok.name, ok.unit)].Hi-ok.back, ok.kind)
			data, err := x.Encode()
			if err != nil {
				t.Fatal(err)
			}
			y, err := backend.Decode(data)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", tgt.Kind, ok.name, err)
			}
			if err := backend.VerifyExecutable(y); err != nil {
				t.Errorf("%s/%s: rejected: %v", tgt.Kind, ok.name, err)
			}
		}
	}
}

// overwriteQubits replaces the one occurrence of the wire form of the
// qubit list from in an encoded artifact with that of to (of the same
// length) and recomputes the container checksum.
func overwriteQubits(t *testing.T, data []byte, from, to []uint) []byte {
	t.Helper()
	wire := func(qs []uint) []byte {
		w := binio.NewWriter(nil)
		w.Uints(qs)
		return w.Bytes()
	}
	if n := bytes.Count(data, wire(from)); n != 1 {
		t.Fatalf("artifact holds the qubit list %v %d times, want once", from, n)
	}
	data = bytes.Replace(data, wire(from), wire(to), 1)
	// magic (4) | version (2) | crc32 of the rest (4)
	binary.LittleEndian.PutUint32(data[6:10], crc32.ChecksumIEEE(data[10:]))
	return data
}

// plantNoise replaces x's noise plan by one point of the given kind after
// gate g, on qubit 0.
func plantNoise(x *backend.Executable, g int, kind circuit.ChannelKind) {
	x.Noise = &backend.NoisePlan{Points: []backend.NoisePoint{{
		Gate: g, Qubit: 0, Ch: circuit.Channel{Kind: kind, P: 0.5},
	}}}
}

// TestVerifyRejectsDirect exercises the invariants the codec masks: these
// corruptions cannot travel through Encode/Decode (the decoder normalizes
// targets and rebuilds plans), but an in-memory executable handed to the
// verifier can still carry them.
func TestVerifyRejectsDirect(t *testing.T) {
	local := backend.Target{FuseWidth: 3, Emulate: recognize.Auto}
	clustered := backend.Target{Kind: backend.Cluster, Nodes: 2, FuseWidth: 3, Emulate: recognize.Auto}
	isGate := func(u *backend.Unit) bool { return u.Op == nil }

	cases := []struct {
		name   string
		target backend.Target
		mutate func(t *testing.T, x *backend.Executable)
	}{
		{"unresolved auto target", local, func(t *testing.T, x *backend.Executable) {
			x.Target.Auto = true
		}},
		{"zero-width register", local, func(t *testing.T, x *backend.Executable) {
			x.NumQubits = 0
		}},
		{"denormalized target", local, func(t *testing.T, x *backend.Executable) {
			x.Target.DiagMinGates = 0 // normalize fills the default; a compiled artifact always carries it
		}},
		{"target width disagrees with register", local, func(t *testing.T, x *backend.Executable) {
			x.Target.NumQubits--
		}},
		{"missing fusion plan", local, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "gate", isGate)
			x.Units[i].Fused = nil
		}},
		{"counter drift", local, func(t *testing.T, x *backend.Executable) {
			x.EmulatedGates++
		}},
		{"empty noise plan", local, func(t *testing.T, x *backend.Executable) {
			x.Noise = &backend.NoisePlan{} // ideal executables carry nil; the codec maps count 0 back to nil
		}},
		{"noise probability out of range", local, func(t *testing.T, x *backend.Executable) {
			x.Noise = &backend.NoisePlan{Points: []backend.NoisePoint{{
				Gate: x.Units[0].Hi - 1, Qubit: 0,
				Ch: circuit.Channel{Kind: circuit.FlipX, P: 1.5},
			}}}
		}},
		{"overlapping units", local, func(t *testing.T, x *backend.Executable) {
			if len(x.Units) < 2 {
				t.Skip("workload compiled to a single unit")
			}
			x.Units[1].Lo--
		}},
		{"missing schedule", clustered, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "gate", isGate)
			x.Units[i].Sched = nil
		}},
		{"remap accounting drift", clustered, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "gate", isGate)
			x.Units[i].Sched.Remaps++
			x.Units[i].Sched.Rounds++
			x.PlannedRemaps++
			x.PlannedRounds++
		}},
		// Emulation off so the QFT stays at gate level and the schedule
		// actually plans remaps to corrupt.
		{"non-bijective placement", backend.Target{Kind: backend.Cluster, Nodes: 2, FuseWidth: 3}, func(t *testing.T, x *backend.Executable) {
			i := findUnit(t, x, "gate", isGate)
			s := x.Units[i].Sched
			for si := range s.Steps {
				if r := s.Steps[si].Remap; r != nil {
					r[0] = r[1]
					return
				}
			}
			t.Skip("schedule plans no remaps for this workload")
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := verifyWorkload(t, tc.target)
			tc.mutate(t, x)
			if err := backend.VerifyExecutable(x); err == nil {
				t.Fatal("verifier accepted a corrupt in-memory executable")
			}
		})
	}

	if err := backend.VerifyExecutable(nil); err == nil {
		t.Fatal("verifier accepted a nil executable")
	}
}
