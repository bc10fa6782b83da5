package recognize

import (
	"fmt"
	"sort"

	"repro/internal/binio"
	"repro/internal/fft"
)

// This file is the Op half of the Executable codec (see
// internal/backend/codec.go for the container format). An encoded op
// carries its full lowered payload — register bit lists, precomputed
// diagonal tables, Fourier field specs — so decoding an artifact never
// re-runs recognition or brute-force verification. The one derived field,
// the fft.Plan of a Fourier op, is rebuilt from the field width at decode
// time: plans are pure functions of the transform size and the twiddle
// tables would dominate the payload otherwise.

// opFlag bit assignments of the encoded flags byte.
const (
	opFlagAnnotated = 1 << iota
	opFlagVerified
	opFlagInverse
	opFlagNoswap
)

// EncodeBinary appends the op's wire form to w.
func (op *Op) EncodeBinary(w *binio.Writer) {
	w.U8(uint8(op.kind))
	var flags uint8
	if op.Annotated {
		flags |= opFlagAnnotated
	}
	if op.Verified {
		flags |= opFlagVerified
	}
	if op.inverse {
		flags |= opFlagInverse
	}
	if op.noswap {
		flags |= opFlagNoswap
	}
	w.U8(flags)
	w.I64(int64(op.Lo))
	w.I64(int64(op.Hi))
	w.U64(uint64(op.pos))
	w.U64(uint64(op.width))
	w.Uints(op.regA)
	w.Uints(op.regB)
	w.Uints(op.regC)
	w.Uints(op.regR)
	w.Uints(op.regQ)
	w.U64(uint64(op.carry))
	w.U64(uint64(op.bz))
	w.U64(uint64(op.m))
	w.Uints(op.qubits)
	w.Complexes(op.diag)
	w.U64(op.value)
}

// EncodedLen returns the number of bytes EncodeBinary appends.
func (op *Op) EncodedLen() int {
	lists := len(op.regA) + len(op.regB) + len(op.regC) + len(op.regR) + len(op.regQ) + len(op.qubits)
	// The kind and flag bytes, eight u64 scalars, seven u32 counts, then
	// the lists' elements.
	return 2 + 8*8 + 7*4 + 8*lists + 16*len(op.diag)
}

// DecodeOpBinary reads one op from r and validates it against a register
// of n qubits, rebuilding the derived fft.Plan for Fourier ops. It
// returns an error (never panics) on truncated, corrupt, or
// out-of-register payloads.
func DecodeOpBinary(r *binio.Reader, n uint) (*Op, error) {
	op := &Op{kind: opKind(r.U8())}
	flags := r.U8()
	op.Annotated = flags&opFlagAnnotated != 0
	op.Verified = flags&opFlagVerified != 0
	op.inverse = flags&opFlagInverse != 0
	op.noswap = flags&opFlagNoswap != 0
	op.Lo = int(r.I64())
	op.Hi = int(r.I64())
	op.pos = uint(r.U64())
	op.width = uint(r.U64())
	op.regA = r.Uints()
	op.regB = r.Uints()
	op.regC = r.Uints()
	op.regR = r.Uints()
	op.regQ = r.Uints()
	op.carry = uint(r.U64())
	op.bz = uint(r.U64())
	op.m = uint(r.U64())
	op.qubits = r.Uints()
	op.diag = r.Complexes()
	op.value = r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := op.validateDecoded(n); err != nil {
		return nil, err
	}
	if op.kind == opQFT {
		plan, err := fft.NewPlan(uint64(1) << op.width)
		if err != nil {
			return nil, err
		}
		op.plan = plan
	}
	return op, nil
}

// Validate checks the op's structural invariants against a register of n
// qubits — the same checks DecodeOpBinary applies — so a verifier
// (backend.VerifyExecutable) can re-validate an in-memory op without a
// wire round trip.
func (op *Op) Validate(n uint) error { return op.validateDecoded(n) }

// validateDecoded checks the structural invariants Apply and the lowering
// accessors assume, so a hand-crafted or version-skewed payload fails at
// decode time instead of panicking mid-run.
func (op *Op) validateDecoded(n uint) error {
	if op.Lo < 0 || op.Hi < op.Lo {
		return fmt.Errorf("recognize: op gate range [%d,%d) invalid", op.Lo, op.Hi)
	}
	checkBits := func(what string, qs []uint) error {
		for _, q := range qs {
			if q >= n || q >= 64 {
				return fmt.Errorf("recognize: %s qubit %d out of range (register width %d)", what, q, n)
			}
		}
		return nil
	}
	sortedStrict := func(qs []uint) bool {
		return sort.SliceIsSorted(qs, func(i, j int) bool { return qs[i] < qs[j] }) &&
			func() bool {
				for i := 1; i < len(qs); i++ {
					if qs[i] == qs[i-1] {
						return false
					}
				}
				return true
			}()
	}
	switch op.kind {
	case opQFT:
		if op.width == 0 || op.width >= 64 || op.pos+op.width > n {
			return fmt.Errorf("recognize: qft field [%d,%d) invalid for %d qubits", op.pos, op.pos+op.width, n)
		}
	case opAdd, opSub, opAddc, opMul, opDiv:
		regs := [][]uint{op.regA, op.regB, op.regC, op.regR, op.regQ}
		names := []string{"regA", "regB", "regC", "regR", "regQ"}
		for i, reg := range regs {
			if err := checkBits(names[i], reg); err != nil {
				return err
			}
		}
		if err := checkBits("aux", []uint{op.carry, op.bz}); err != nil {
			return err
		}
		m := int(op.m)
		shapeOK := false
		switch op.kind {
		case opAdd, opSub, opAddc:
			shapeOK = m > 0 && len(op.regA) == m && len(op.regB) == m
		case opMul:
			// The product register C is m wide too: the shift-and-add
			// multiplier accumulates the truncated product a*b mod 2^m.
			shapeOK = m > 0 && len(op.regA) == m && len(op.regB) == m && len(op.regC) == m
		case opDiv:
			shapeOK = m > 0 && len(op.regR) == 2*m && len(op.regB) == m && len(op.regQ) == m
		}
		if !shapeOK {
			return fmt.Errorf("recognize: %s register shape inconsistent with m=%d", op.kind, op.m)
		}
		// Overlapping registers would make the op's map on basis indices
		// something other than a bijection, which the permutation kernels
		// assume (each destination written once, by one worker).
		if !distinctQubits(op.support()) {
			return fmt.Errorf("recognize: %s registers and ancillas overlap", op.kind)
		}
	case opDiag:
		if err := checkBits("diagonal", op.qubits); err != nil {
			return err
		}
		if !sortedStrict(op.qubits) {
			return fmt.Errorf("recognize: diagonal qubit list not strictly ascending")
		}
		if len(op.qubits) >= 32 || len(op.diag) != 1<<uint(len(op.qubits)) {
			return fmt.Errorf("recognize: diagonal table holds %d entries for %d qubits", len(op.diag), len(op.qubits))
		}
	case opPhaseFlip:
		if err := checkBits("phaseflip", op.qubits); err != nil {
			return err
		}
		if !sortedStrict(op.qubits) {
			return fmt.Errorf("recognize: phaseflip qubit list not strictly ascending")
		}
		w := uint(len(op.qubits))
		if w == 0 || (w < 64 && op.value>>w != 0) {
			return fmt.Errorf("recognize: phaseflip value %d exceeds %d bits", op.value, w)
		}
	case opReflect:
		if err := checkBits("reflect-uniform", op.qubits); err != nil {
			return err
		}
		if uint(len(op.qubits)) != n {
			return fmt.Errorf("recognize: reflect-uniform spans %d of %d qubits", len(op.qubits), n)
		}
	default:
		return fmt.Errorf("recognize: unknown encoded op kind %d", int(op.kind))
	}
	return nil
}
