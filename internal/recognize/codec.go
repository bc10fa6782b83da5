package recognize

import (
	"fmt"

	"repro/internal/binio"
	"repro/internal/circuit"
)

// This file is the Op half of the Executable codec (see
// internal/backend/codec.go for the container format). An op is written as
// the region annotation it lowers from — the `region NAME args…`
// vocabulary of doc.go, with the 2^w table of a matched diagonal run — and
// read back through parseRegion, the parser Analyze runs on a circuit's
// annotations, so the artifact, the qasm frontend and the builders share
// one layout and one validator. Decoding never re-runs recognition or
// brute-force verification; the one derived field, the fft.Plan of a
// Fourier op, is rebuilt from the field width as parseRegion does for an
// annotation.

// opFlag bit assignments of the encoded flags byte.
const (
	opFlagAnnotated = 1 << iota
	opFlagVerified
)

// EncodeRegion appends r's wire form: its name, gate range and args. The
// op payload and backend.Fingerprint's hash of a circuit's annotations
// both write a region in these bytes.
func EncodeRegion(w *binio.Writer, r circuit.Region) {
	w.String(r.Name)
	w.I64(int64(r.Lo))
	w.I64(int64(r.Hi))
	w.U64s(r.Args)
}

// EncodeBinary appends the op's wire form to w: a flags byte (Annotated,
// Verified), the op's region form, and the table of a diagonal run.
func (op *Op) EncodeBinary(w *binio.Writer) {
	var flags uint8
	if op.Annotated {
		flags |= opFlagAnnotated
	}
	if op.Verified {
		flags |= opFlagVerified
	}
	w.U8(flags)
	EncodeRegion(w, op.Region())
	if op.kind == opDiag {
		w.Complexes(op.diag)
	}
}

// EncodedLen returns the number of bytes EncodeBinary appends.
func (op *Op) EncodedLen() int {
	r := op.Region()
	// The flags byte, the name's length and bytes, the gate range, the
	// args' count and values, then the table's count and entries.
	n := 1 + 4 + len(r.Name) + 16 + 4 + 8*len(r.Args)
	if op.kind == opDiag {
		n += 4 + 16*len(op.diag)
	}
	return n
}

// DecodeOpBinary reads one op from r and checks it against a register of
// n qubits with parseRegion, rebuilding the fft.Plan of a Fourier op. It
// returns an error (never panics) on truncated, corrupt, or
// out-of-register payloads.
func DecodeOpBinary(r *binio.Reader, n uint) (*Op, error) {
	flags := r.U8()
	reg := circuit.Region{Name: r.String()}
	reg.Lo = int(r.I64())
	reg.Hi = int(r.I64())
	reg.Args = r.U64s()
	var table []complex128
	if reg.Name == regionDiagonal {
		table = r.Complexes()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if flags&^(opFlagAnnotated|opFlagVerified) != 0 {
		return nil, fmt.Errorf("recognize: unknown op flags %#x", flags)
	}
	op, err := parseRegion(n, reg, table)
	if err != nil {
		return nil, fmt.Errorf("recognize: %w", err)
	}
	op.Annotated = flags&opFlagAnnotated != 0
	op.Verified = flags&opFlagVerified != 0
	return op, nil
}

// Validate checks the op against a register of n qubits by parsing its
// region form — the check DecodeOpBinary and Analyze make — so a verifier
// (backend.VerifyExecutable) can re-validate an in-memory op without a
// wire round trip.
func (op *Op) Validate(n uint) error {
	if _, err := parseRegion(n, op.Region(), op.diag); err != nil {
		return fmt.Errorf("recognize: %w", err)
	}
	return nil
}
