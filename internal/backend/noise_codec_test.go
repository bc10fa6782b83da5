package backend_test

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/qft"
	"repro/internal/recognize"
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

// TestCodecNoiseRoundTrip: the noise section (v4 on) survives Encode/Decode
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

// downgrade rewrites a v4/v5 ideal artifact into the v3 or v2 wire layout
// by deleting the sections those versions predate, pinning the layout
// constants the codec documents: 10-byte header, 59-byte target, then
// the length-prefixed 64-char source key, then the u32 noise count.
func downgrade(t *testing.T, data []byte, version uint16) []byte {
	t.Helper()
	const header, target = 10, 59
	body := append([]byte(nil), data[header:]...)
	keyLen := 4 + int(binary.LittleEndian.Uint32(body[target:]))
	if n := binary.LittleEndian.Uint32(body[target+keyLen:]); n != 0 {
		t.Fatalf("downgrade wants an ideal artifact; found %d noise points", n)
	}
	switch version {
	case 3: // drop the noise count
		body = append(body[:target+keyLen], body[target+keyLen+4:]...)
	case 2: // drop the source key too
		body = append(body[:target], body[target+keyLen+4:]...)
	default:
		t.Fatalf("downgrade to unsupported version %d", version)
	}
	out := make([]byte, 0, header+len(body))
	out = append(out, "QEXE"...)
	out = binary.LittleEndian.AppendUint16(out, version)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crc32.MakeTable(crc32.IEEE)))
	return append(out, body...)
}

// TestCodecVersionMatrix is the compatibility contract: v5 encodes; v2/v3
// artifacts — which predate the noise plan and (for v2) the source key —
// still decode to ideal executables that verify and run; and a v4 noisy
// artifact, whose every point closes a unit, replays the trajectories a
// fresh v5 compile does.
func TestCodecVersionMatrix(t *testing.T) {
	c := prep(8)
	c.Extend(qft.Circuit(8))
	tgt := backend.Target{NumQubits: 8, FuseWidth: 3, Emulate: recognize.Auto}
	x, err := backend.Compile(c, tgt)
	if err != nil {
		t.Fatal(err)
	}
	v5, err := x.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(v5[4:]); v != 5 || backend.CodecVersion != 5 {
		t.Fatalf("Encode wrote version %d, CodecVersion is %d, want 5", v, backend.CodecVersion)
	}

	t.Run("v5 and v4 share a layout", func(t *testing.T) {
		// The number moved for the noise pass, not the wire: an ideal v5
		// artifact relabelled v4 (the version field is outside the crc)
		// is the artifact a v4 build wrote.
		v4 := append([]byte(nil), v5...)
		binary.LittleEndian.PutUint16(v4[4:], 4)
		y, err := backend.Decode(v4)
		if err != nil {
			t.Fatalf("v4 artifact rejected: %v", err)
		}
		if err := backend.VerifyExecutableKey(y, x.SourceKey); err != nil {
			t.Fatalf("v4 artifact fails keyed verification: %v", err)
		}
	})

	t.Run("v4 noisy artifact replays a fresh compile's trajectories", func(t *testing.T) {
		noisy := prep(8)
		noisy.Extend(qft.Circuit(8))
		noisy.SetGlobalNoise(circuit.Channel{Kind: circuit.Depolarizing, P: 0.05})
		noisy.AttachNoise(3, 1, circuit.Channel{Kind: circuit.AmplitudeDamping, P: 0.2})
		fresh, err := backend.Compile(noisy, tgt)
		if err != nil {
			t.Fatal(err)
		}
		// What v4 compiled: the same plan, a unit boundary after every
		// struck gate — under a global channel, one gate per unit. Gate
		// units travel as their gate list, so the old schedule encodes
		// from the new executable's header and plan.
		old := *fresh
		old.Units = nil
		for g := range noisy.Gates {
			old.Units = append(old.Units, backend.Unit{Gates: noisy.Gates[g : g+1], Lo: g, Hi: g + 1})
		}
		data, err := old.Encode()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(data[4:], 4)
		y, err := backend.Decode(data)
		if err != nil {
			t.Fatalf("v4 noisy artifact rejected: %v", err)
		}
		if err := backend.VerifyExecutableKey(y, fresh.SourceKey); err != nil {
			t.Fatalf("v4 noisy artifact fails keyed verification: %v", err)
		}
		if len(y.Units) != noisy.Len() || len(fresh.Units) >= len(y.Units)/2 {
			t.Fatalf("v4 artifact has %d units, fresh compile %d, of %d gates", len(y.Units), len(fresh.Units), noisy.Len())
		}
		for _, seed := range []uint64{1, 7} {
			opts := noise.Options{Trajectories: 300, Seed: seed, Workers: 2}
			want, err := noise.Run(fresh, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := noise.Run(y, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Jumps != want.Jumps || want.Jumps == 0 || want.StruckUnits == 0 || got.StruckUnits != 0 {
				t.Fatalf("seed %d: v4 artifact drew %d jumps (%d struck units), fresh compile %d (%d)",
					seed, got.Jumps, got.StruckUnits, want.Jumps, want.StruckUnits)
			}
			for i := range want.Outcomes {
				if got.Outcomes[i] != want.Outcomes[i] {
					t.Fatalf("seed %d: trajectory %d sampled %d from the v4 artifact, %d from the fresh compile",
						seed, i, got.Outcomes[i], want.Outcomes[i])
				}
			}
		}
	})

	t.Run("v3 decodes without a noise plan", func(t *testing.T) {
		y, err := backend.Decode(downgrade(t, v5, 3))
		if err != nil {
			t.Fatalf("v3 artifact rejected: %v", err)
		}
		if y.Noise != nil {
			t.Fatalf("v3 artifact decoded a noise plan: %+v", y.Noise)
		}
		if y.SourceKey != x.SourceKey {
			t.Fatalf("v3 source key %.12s…, want %.12s…", y.SourceKey, x.SourceKey)
		}
		if err := backend.VerifyExecutableKey(y, x.SourceKey); err != nil {
			t.Fatalf("v3 artifact fails keyed verification: %v", err)
		}
	})

	t.Run("v2 decodes without a source key", func(t *testing.T) {
		y, err := backend.Decode(downgrade(t, v5, 2))
		if err != nil {
			t.Fatalf("v2 artifact rejected: %v", err)
		}
		if y.Noise != nil || y.SourceKey != "" {
			t.Fatalf("v2 artifact decoded key %q, plan %+v", y.SourceKey, y.Noise)
		}
		if err := backend.VerifyExecutable(y); err != nil {
			t.Fatalf("keyless v2 artifact fails verification: %v", err)
		}
		// Keyed admission adopts the cache key for a keyless legacy
		// artifact, so a re-encoded copy pins its provenance.
		if err := backend.VerifyExecutableKey(y, x.SourceKey); err != nil {
			t.Fatalf("v2 artifact fails keyed admission: %v", err)
		}
		if y.SourceKey != x.SourceKey {
			t.Fatal("keyed admission did not adopt the key")
		}

		// The decoded legacy artifact must execute identically.
		b1, err := backend.New(tgt)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := backend.New(tgt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b1.Run(x); err != nil {
			t.Fatal(err)
		}
		if _, err := b2.Run(y); err != nil {
			t.Fatal(err)
		}
		if d := b1.State().MaxDiff(b2.State()); d > 1e-12 {
			t.Fatalf("v2-decoded executable diverges by %g", d)
		}
	})

	t.Run("versions outside the window rejected", func(t *testing.T) {
		for _, v := range []uint16{0, 1, backend.CodecVersion + 1} {
			mut := append([]byte(nil), v5...)
			binary.LittleEndian.PutUint16(mut[4:], v)
			if _, err := backend.Decode(mut); err == nil ||
				!strings.Contains(err.Error(), "version") {
				t.Fatalf("version %d decoded with error %v", v, err)
			}
		}
	})
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
