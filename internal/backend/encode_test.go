package backend

import (
	"bytes"
	"hash/crc32"
	"testing"

	"repro/internal/binio"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/revlib"
)

// encodeGrowing is the encoder Encode replaced, kept as its oracle: every
// unit payload grows a writer of its own, the body grows by appending them,
// and the output copies the body.
func encodeGrowing(x *Executable) []byte {
	body := binio.NewWriter(nil)
	encodeTarget(body, x.Target)
	body.String(x.SourceKey)
	if x.Noise != nil {
		body.U32(uint32(len(x.Noise.Points)))
		for _, pt := range x.Noise.Points {
			body.I64(int64(pt.Gate))
			body.U64(uint64(pt.Qubit))
			body.U8(uint8(pt.Ch.Kind))
			body.F64(pt.Ch.P)
		}
	} else {
		body.U32(0)
	}
	body.I64(int64(x.NumGates))
	body.U32(uint32(len(x.Skipped)))
	for _, s := range x.Skipped {
		body.String(s.Name)
		body.I64(int64(s.Lo))
		body.I64(int64(s.Hi))
		body.String(s.Reason)
	}
	payloads := make([][]byte, len(x.Units))
	for i := range x.Units {
		u := &x.Units[i]
		w := binio.NewWriter(nil)
		w.I64(int64(u.Lo))
		w.I64(int64(u.Hi))
		if u.Op != nil {
			w.String(u.Substrate)
			u.Op.EncodeBinary(w)
		} else {
			w.U32(uint32(len(u.Gates)))
			for _, g := range u.Gates {
				encodeGate(w, g)
			}
		}
		payloads[i] = w.Bytes()
	}
	body.U32(uint32(len(x.Units)))
	for i := range x.Units {
		if x.Units[i].Op != nil {
			body.U8(unitOp)
		} else {
			body.U8(unitGates)
		}
		body.U64(uint64(len(payloads[i])))
	}
	for _, p := range payloads {
		body.Raw(p)
	}
	out := binio.NewWriter(nil)
	out.Raw([]byte(codecMagic))
	out.U16(CodecVersion)
	out.U32(crc32.Checksum(body.Bytes(), crcTable))
	out.Raw(body.Bytes())
	return out.Bytes()
}

// diagExecutable compiles a run of controlled phases and Rz over all n
// qubits for a fused target: one op unit carrying a 2^n-entry diagonal
// table.
func diagExecutable(tb testing.TB, n uint) *Executable {
	tb.Helper()
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		c.Append(gates.CR(q, (q+1)%n, 0.3+float64(q)), gates.Rz(q, 1.1))
	}
	x, err := Compile(c, Target{NumQubits: n, FuseWidth: 4, Emulate: recognize.Auto})
	if err != nil {
		tb.Fatal(err)
	}
	if len(x.Units) != 1 || x.Units[0].Op == nil || x.Units[0].Op.Kind() != "diagonal" {
		tb.Fatalf("n=%d: want one diagonal op unit, got %d units", n, len(x.Units))
	}
	return x
}

// TestEncodeMatchesGrowingEncoder holds Encode to the bytes of the encoder
// it replaced on executables with every section filled: a diagonal table,
// gate units, a QFT op, a noise plan, a skipped region and a cluster target.
func TestEncodeMatchesGrowingEncoder(t *testing.T) {
	noisy := circuit.New(8)
	for q := uint(0); q < 8; q++ {
		noisy.Append(gates.H(q), gates.Rx(q, 0.2+float64(q)))
	}
	noisy.Extend(qft.Circuit(8))
	noisy.SetGlobalNoise(circuit.Channel{Kind: circuit.Depolarizing, P: 0.01})

	lying := circuit.New(7)
	lying.Append(gates.H(0), gates.H(3))
	lo := lying.Len()
	revlib.Adder(lying, revlib.Seq(0, 3), revlib.Seq(3, 3), 6)
	lying.Regions = nil
	lying.Annotate(circuit.Region{Name: "sub", Args: []uint64{3, 0, 1, 2, 3, 4, 5, 6}, Lo: lo, Hi: lying.Len()})

	cases := map[string]*Executable{"diag10": diagExecutable(t, 10), "diag14": diagExecutable(t, 14)}
	for name, tc := range map[string]struct {
		c *circuit.Circuit
		t Target
	}{
		"noisy-qft":     {noisy, Target{NumQubits: 8, FuseWidth: 4, Emulate: recognize.Auto}},
		"lying-adder":   {lying, Target{NumQubits: 7, FuseWidth: 3, Emulate: recognize.Annotated}},
		"cluster-qft":   {noisy, Target{NumQubits: 8, Kind: Cluster, Nodes: 2, FuseWidth: 3, Emulate: recognize.Auto}},
		"gates-no-emul": {lying, Target{NumQubits: 7, FuseWidth: 2}},
	} {
		x, err := Compile(tc.c, tc.t)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases[name] = x
	}
	if len(cases["lying-adder"].Skipped) == 0 || cases["noisy-qft"].Noise == nil {
		t.Fatal("the lying adder was not skipped, or the noisy QFT carries no noise plan")
	}
	for name, x := range cases {
		got, err := x.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := encodeGrowing(x); !bytes.Equal(got, want) {
			t.Errorf("%s: Encode wrote %d bytes that differ from the growing encoder's %d", name, len(got), len(want))
		}
	}
}

// TestEncodeAllocations pins Encode's allocations on the 14-qubit diagonal
// executable: a handful, the same count as for a 10-qubit table, since the
// output is sized once instead of growing with the table.
func TestEncodeAllocations(t *testing.T) {
	counts := map[uint]float64{}
	for _, n := range []uint{10, 14} {
		x := diagExecutable(t, n)
		counts[n] = testing.AllocsPerRun(50, func() {
			if _, err := x.Encode(); err != nil {
				t.Fatal(err)
			}
		})
		if counts[n] > 8 {
			t.Errorf("n=%d: Encode allocates %v times, want at most 8", n, counts[n])
		}
	}
	if counts[10] != counts[14] {
		t.Errorf("Encode allocates %v times for a 2^10 table and %v for a 2^14 one", counts[10], counts[14])
	}
}
