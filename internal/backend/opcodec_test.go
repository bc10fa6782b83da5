package backend

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"repro/internal/binio"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/recognize"
)

// opArtifact writes a crc-valid artifact of an n-qubit fused target whose
// one unit is an op over gates [0, 4), its payload the given flags byte,
// region form and (for a diagonal) table — whatever they hold.
func opArtifact(n uint, flags uint8, reg circuit.Region, table []complex128) []byte {
	return opArtifactOn(Target{NumQubits: n, FuseWidth: 2, Emulate: recognize.Auto},
		cluster.SubstrateStatevec, flags, reg, table)
}

// opArtifactOn is opArtifact on target t, the unit naming substrate sub.
func opArtifactOn(t Target, sub string, flags uint8, reg circuit.Region, table []complex128) []byte {
	unit := binio.NewWriter(nil)
	unit.I64(0)
	unit.I64(4)
	unit.String(sub)
	unit.U8(flags)
	recognize.EncodeRegion(unit, reg)
	if reg.Name == "diagonal" {
		unit.Complexes(table)
	}
	body := binio.NewWriter(nil)
	encodeTarget(body, t)
	body.String(strings.Repeat("0", 64))
	body.U32(0) // no noise points
	body.I64(4) // gates
	body.U32(0) // no skipped regions
	body.U32(1)
	body.U8(unitOp)
	body.U64(uint64(unit.Len()))
	body.Raw(unit.Bytes())
	out := binary.LittleEndian.AppendUint16([]byte(codecMagic), CodecVersion)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body.Bytes(), crcTable))
	return append(out, body.Bytes()...)
}

// TestVerifyRefusesFieldWithTooManyNodeBits pins the one load-time effect
// of the Fourier lowering's feasibility rule (node field bits n1 =
// pos+w-L must fit a shard): a v8 artifact holding the field [2,7) of 8
// qubits on 32 nodes (L = 3, n1 = 4), which the earlier rule lowered as
// field-four-step-fft, decodes but fails VerifyExecutable, the check a
// warm start and an artifact upload run; on 16 nodes (L = 4, n1 = 3) the
// same unit passes.
func TestVerifyRefusesFieldWithTooManyNodeBits(t *testing.T) {
	reg := circuit.Region{Name: "qft", Args: []uint64{2, 5}, Lo: 0, Hi: 4}
	verify := func(nodes int) error {
		x, err := Decode(opArtifactOn(Target{NumQubits: 8, Kind: Cluster, Nodes: nodes, FuseWidth: 2, Emulate: recognize.Auto},
			cluster.SubstrateFieldFFT, 0, reg, nil))
		if err != nil {
			t.Fatalf("%d nodes: Decode: %v", nodes, err)
		}
		return VerifyExecutable(x)
	}
	if err := verify(16); err != nil {
		t.Fatalf("control on 16 nodes: %v", err)
	}
	if err := verify(32); err == nil || !strings.Contains(err.Error(), "has no distributed lowering") {
		t.Fatalf("32 nodes: VerifyExecutable returned %v, want the op refused as having no distributed lowering", err)
	}
}

// TestDecodeOpChecks pins every check an op payload passes at Decode —
// the region parser's, the one validator — with a payload that fails it,
// beside well-formed controls of the same shapes.
func TestDecodeOpChecks(t *testing.T) {
	phases := func(k int) []complex128 {
		d := make([]complex128, k)
		for i := range d {
			d[i] = 1i
		}
		return d
	}
	seq := func(k uint64) []uint64 {
		out := make([]uint64, k)
		for i := range out {
			out[i] = uint64(i)
		}
		return out
	}
	type opCase struct {
		what  string
		n     uint
		flags uint8
		reg   circuit.Region
		table []complex128
	}
	region := func(name string, args ...uint64) circuit.Region {
		return circuit.Region{Name: name, Args: args, Lo: 0, Hi: 4}
	}
	for _, tc := range []opCase{
		{"add", 4, 1, region("add", 1, 0, 1, 2), nil},
		{"div", 6, 3, region("div", 1, 0, 1, 2, 3, 4, 5), nil},
		{"diagonal", 4, 2, region("diagonal", 2, 0, 1), phases(4)},
		{"phaseflip", 4, 0, region("phaseflip", 2, 3, 1, 2), nil},
		{"reflect", 4, 1, region("reflect-uniform", 4, 3, 2, 1, 0), nil},
		{"qft", 4, 1, region("iqft-noswap", 1, 3), nil},
	} {
		if _, err := Decode(opArtifact(tc.n, tc.flags, tc.reg, tc.table)); err != nil {
			t.Errorf("control %s: %v", tc.what, err)
		}
	}
	for _, tc := range []opCase{
		{"negative gate range", 4, 0, circuit.Region{Name: "add", Args: []uint64{1, 0, 1, 2}, Lo: -1, Hi: 4}, nil},
		{"inverted gate range", 4, 0, circuit.Region{Name: "add", Args: []uint64{1, 0, 1, 2}, Lo: 3, Hi: 1}, nil},
		{"qubit past the register", 4, 0, region("add", 1, 0, 1, 4), nil},
		{"qubit past 64", 64, 0, region("add", 1, 0, 1, 64), nil},
		{"register shape against m", 8, 0, region("mul", 2, 0, 1, 2, 3, 4, 5), nil},
		{"divider shape against m", 8, 0, region("div", 1, 0, 1, 2, 3, 4), nil},
		{"overflowing width", 4, 0, region("add", 1<<63, 0), nil},
		{"overlapping registers", 4, 0, region("add", 1, 0, 0, 2), nil},
		{"ancilla inside a register", 4, 0, region("addc", 1, 0, 1, 1, 2), nil},
		{"diagonal not ascending", 4, 0, region("diagonal", 2, 1, 0), phases(4)},
		{"diagonal of 32 qubits", 40, 0, region("diagonal", append([]uint64{32}, seq(32)...)...), phases(1)},
		{"diagonal table short", 4, 0, region("diagonal", 2, 0, 1), phases(3)},
		{"diagonal without a table", 4, 0, region("diagonal", 2, 0, 1), nil},
		{"phaseflip value past its bits", 4, 0, region("phaseflip", 2, 0, 1, 4), nil},
		{"reflect on part of the register", 4, 0, region("reflect-uniform", 2, 0, 1), nil},
		{"QFT field past the register", 4, 0, region("qft", 2, 3), nil},
		{"QFT field wrapping past 2^64", 4, 0, region("qft", math.MaxUint64, 1), nil},
		{"empty QFT field", 4, 0, region("qft", 0, 0), nil},
		{"unknown kind", 4, 0, region("bogus", 1, 0), nil},
		{"unknown flag bits", 4, 0x80, region("add", 1, 0, 1, 2), nil},
	} {
		_, err := Decode(opArtifact(tc.n, tc.flags, tc.reg, tc.table))
		if err == nil || !strings.Contains(err.Error(), "unit 0 op") {
			t.Errorf("%s: Decode returned %v, want the op payload rejected", tc.what, err)
		}
	}
}
