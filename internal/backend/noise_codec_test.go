package backend_test

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/serve"
)

// noisyWorkload is prep+QFT with one per-gate damping channel on gate 0 —
// a cut at gate 1 only, so the recognised QFT region stays intact.
func noisyWorkload() *circuit.Circuit {
	c := prep(8)
	c.Extend(qft.Circuit(8))
	c.AttachNoise(0, 0, circuit.Channel{Kind: circuit.AmplitudeDamping, P: 0.1})
	return c
}

func TestCompileNoisePlan(t *testing.T) {
	tgt := backend.Target{NumQubits: 8, FuseWidth: 3, Emulate: recognize.Auto}

	t.Run("ideal circuits carry no plan", func(t *testing.T) {
		c := prep(8)
		c.Extend(qft.Circuit(8))
		x, err := backend.Compile(c, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if x.Noise != nil {
			t.Fatalf("ideal circuit compiled noise plan %+v", x.Noise)
		}
	})

	t.Run("per-gate noise away from ops keeps the shortcut", func(t *testing.T) {
		x, err := backend.Compile(noisyWorkload(), tgt)
		if err != nil {
			t.Fatal(err)
		}
		if x.Noise == nil || len(x.Noise.Points) != 1 {
			t.Fatalf("expected 1 noise point, got %+v", x.Noise)
		}
		if x.EmulatedGates == 0 {
			t.Fatal("boundary-only noise demoted the recognised QFT to gate level")
		}
		if err := backend.VerifyExecutable(x); err != nil {
			t.Fatalf("compiled noisy executable fails verification: %v", err)
		}
		// A damping point closes its unit.
		if got := x.Units[0].Hi; got != 1 {
			t.Fatalf("noise after gate 0 should cut the first unit at 1, got %d", got)
		}
	})

	t.Run("global noise demotes ops to gate level", func(t *testing.T) {
		c := prep(8)
		c.Extend(qft.Circuit(8))
		c.SetGlobalNoise(circuit.Channel{Kind: circuit.Depolarizing, P: 0.01})
		x, err := backend.Compile(c, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if x.EmulatedGates != 0 {
			t.Fatal("a recognised op cannot host a strike before its last gate")
		}
		// Through codec v4 this pinned "every unit is a single gate": 59
		// units, 0 fused blocks, a cut after every struck gate. A Pauli
		// point no longer forces a boundary (its branch is known before
		// the unit runs), so the 59 gates now compile to 8 units of 4-10
		// gates holding 12 fused blocks, and what is pinned is the spacing
		// rule itself: with S the summed fire probability of the points on
		// a unit's gates but the last and k its gate count, S·k < 1 — and
		// the unit was closed because taking one more gate would have
		// reached 1 (the last unit ends with the circuit instead).
		if len(x.Units) != 8 || x.FusedBlocks != 12 {
			t.Errorf("%d units with %d fused blocks under global depolarizing 0.01, want 8 with 12", len(x.Units), x.FusedBlocks)
		}
		for i := range x.Units {
			u := &x.Units[i]
			k := float64(u.Hi - u.Lo)
			interior := 0.01 * float64(len(x.Noise.PointsIn(u.Lo, u.Hi-1)))
			whole := 0.01 * float64(len(x.Noise.PointsIn(u.Lo, u.Hi)))
			if interior*k >= 1 {
				t.Errorf("unit %d [%d,%d): expected replay cost %.2f sweeps, the rule closes a unit before 1", i, u.Lo, u.Hi, interior*k)
			}
			if i < len(x.Units)-1 && whole*(k+1) < 1 {
				t.Errorf("unit %d [%d,%d) closed early: one more gate would cost %.2f sweeps", i, u.Lo, u.Hi, whole*(k+1))
			}
		}
		demoted := false
		for _, s := range x.Skipped {
			if strings.Contains(s.Reason, "noise insertion") {
				demoted = true
			}
		}
		if !demoted {
			t.Fatal("no skip records the noise demotion")
		}
		if err := backend.VerifyExecutable(x); err != nil {
			t.Fatalf("verification: %v", err)
		}
	})

	t.Run("invalid model rejected before the pipeline", func(t *testing.T) {
		c := prep(8)
		c.Noise = &circuit.NoiseModel{Global: []circuit.Channel{{Kind: circuit.FlipX, P: 1.5}}}
		if _, err := backend.Compile(c, tgt); err == nil {
			t.Fatal("Compile accepted probability 1.5")
		}
	})
}

// TestCodecNoiseRoundTrip: the noise section survives Encode/Decode
// byte-exactly, for both local and cluster shapes.
func TestCodecNoiseRoundTrip(t *testing.T) {
	c := noisyWorkload()
	for _, tgt := range codecTargets(8) {
		x, err := backend.Compile(c, tgt)
		if err != nil {
			t.Fatalf("%s: %v", tgt.Kind, err)
		}
		data, err := x.Encode()
		if err != nil {
			t.Fatal(err)
		}
		y, err := backend.Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", tgt.Kind, err)
		}
		if y.Noise == nil || len(y.Noise.Points) != len(x.Noise.Points) {
			t.Fatalf("%s: decoded plan %+v, want %+v", tgt.Kind, y.Noise, x.Noise)
		}
		for i := range x.Noise.Points {
			if y.Noise.Points[i] != x.Noise.Points[i] {
				t.Fatalf("%s: point %d decoded as %+v, want %+v",
					tgt.Kind, i, y.Noise.Points[i], x.Noise.Points[i])
			}
		}
		if err := backend.VerifyExecutableKey(y, x.SourceKey); err != nil {
			t.Fatalf("%s: decoded noisy artifact fails keyed verification: %v", tgt.Kind, err)
		}
	}
}

// TestCodecRejectsV5: Decode reads one layout. A v5 artifact — this
// executable with the three target fields v6 dropped — is refused with the
// version error, and a cache warm start deletes it rather than serving it
// (recompiling on the next request is always correct). So is the artifact
// relabelled v6, the layout whose op payload was a struct dump, and v7,
// whose single-node targets ran no schedules.
func TestCodecRejectsV5(t *testing.T) {
	c := prep(8)
	c.Extend(qft.Circuit(8))
	x, err := backend.Compile(c, backend.Target{NumQubits: 8, FuseWidth: 3, Emulate: recognize.Auto})
	if err != nil {
		t.Fatal(err)
	}
	v8, err := x.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(v8[4:]); v != 8 || backend.CodecVersion != 8 {
		t.Fatalf("Encode wrote version %d, CodecVersion is %d, want 8", v, backend.CodecVersion)
	}
	for _, version := range []uint16{6, 7} {
		old := binary.LittleEndian.AppendUint16([]byte("QEXE"), version)
		old = append(old, v8[6:]...)
		if _, err := backend.Decode(old); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("v%d artifact decoded with error %v, want the version error", version, err)
		}
	}

	// After the 10-byte header, v5's target held MaxLocalQubits between the
	// node count (ending at byte 34) and the emulation mode, and
	// DiagMinGates and DiagMaxWidth after the mode.
	const header, nodesEnd = 10, 34
	body := v8[header:]
	old := append(append([]byte(nil), body[:nodesEnd]...), make([]byte, 8)...)
	old = append(old, body[nodesEnd])
	old = binary.LittleEndian.AppendUint64(old, 32)
	old = binary.LittleEndian.AppendUint64(old, 3)
	old = append(old, body[nodesEnd+1:]...)
	v5 := binary.LittleEndian.AppendUint16([]byte("QEXE"), 5)
	v5 = binary.LittleEndian.AppendUint32(v5, crc32.ChecksumIEEE(old))
	v5 = append(v5, old...)
	if _, err := backend.Decode(v5); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("v5 artifact decoded with error %v, want the version error", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, x.SourceKey+".qexe")
	if err := os.WriteFile(path, v5, 0o644); err != nil {
		t.Fatal(err)
	}
	cache := serve.NewCache(1<<30, dir)
	defer cache.Close()
	if n, err := cache.WarmStart(nil); err != nil || n != 0 {
		t.Fatalf("warm start restored %d artifacts (err %v), want none", n, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("warm start kept the v5 artifact: %v", err)
	}
}

// TestCodecNoiseDecodeRejects: structurally corrupt noise sections are
// caught at decode time, before verification.
func TestCodecNoiseDecodeRejects(t *testing.T) {
	tgt := backend.Target{NumQubits: 8, FuseWidth: 3, Emulate: recognize.Auto}
	x, err := backend.Compile(noisyWorkload(), tgt)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func(x *backend.Executable)) {
		y, err := backend.Compile(noisyWorkload(), tgt)
		if err != nil {
			t.Fatal(err)
		}
		mutate(y)
		data, err := y.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, err := backend.Decode(data); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
	corrupt("probability above 1", func(x *backend.Executable) { x.Noise.Points[0].Ch.P = 1.5 })
	corrupt("unknown channel kind", func(x *backend.Executable) { x.Noise.Points[0].Ch.Kind = 200 })
	corrupt("qubit out of register", func(x *backend.Executable) { x.Noise.Points[0].Qubit = 64 })
	corrupt("gate past the circuit", func(x *backend.Executable) { x.Noise.Points[0].Gate = x.NumGates })

	// Control: the unmutated artifact decodes.
	data, err := x.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backend.Decode(data); err != nil {
		t.Fatalf("clean noisy artifact rejected: %v", err)
	}
}
