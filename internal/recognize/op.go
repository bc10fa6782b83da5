package recognize

import (
	"fmt"
	"slices"

	"repro/internal/bitops"
	"repro/internal/circuit"
	"repro/internal/fft"
	"repro/internal/statevec"
)

// opKind enumerates the classical shortcuts an Op can lower to.
type opKind int

const (
	opQFT       opKind = iota // Fourier transform on a contiguous field
	opAdd                     // b += a + carry
	opSub                     // b -= a + carry
	opAddc                    // b += a + carry with the carry-out XORed into an extra qubit
	opMul                     // shift-and-add product accumulate
	opDiv                     // restoring division
	opDiag                    // precomputed diagonal over the support qubits
	opPhaseFlip               // sign flip of one basis pattern
	opReflect                 // Householder reflection I - 2|s><s| about the uniform state
)

func (k opKind) String() string {
	switch k {
	case opQFT:
		return "qft"
	case opAdd:
		return "add"
	case opSub:
		return "sub"
	case opAddc:
		return "addc"
	case opMul:
		return "mul"
	case opDiv:
		return "div"
	case opDiag:
		return "diagonal"
	case opPhaseFlip:
		return "phaseflip"
	case opReflect:
		return "reflect"
	}
	return fmt.Sprintf("opKind(%d)", int(k))
}

// Op is one recognised region lowered to an emulator shortcut. It replaces
// the gates [Lo, Hi) of the analysed circuit.
type Op struct {
	// Lo and Hi bound the replaced gate range.
	Lo, Hi int
	// Annotated is true when the op came from a circuit.Region marker
	// rather than the pattern matchers.
	Annotated bool
	// Verified is true when Analyze proved the op against the gates it
	// replaces: the gates are its reference network (identity, any
	// width), or every column of their unitary equals the op's (up to
	// MaxVerifyQubits of support). It is false for a wider op without
	// identity, such as a diagonal run, or a lying annotation, which is
	// still kept (ROADMAP items 10(b), (c)).
	Verified bool

	kind opKind

	// Fourier fields.
	pos, width uint
	inverse    bool // inverse transform
	noswap     bool // composed with the field bit reversal
	plan       *fft.Plan

	// Arithmetic registers as bit-position lists (LSB first). bz is the
	// divider's zero-extension ancilla; for addc it doubles as the
	// carry-out qubit.
	regA, regB, regC []uint
	regR, regQ       []uint
	carry, bz        uint
	m                uint // operand width in bits

	// Diagonal / phase-flip fields. qubits is sorted ascending; bit j of
	// a local value corresponds to qubits[j].
	qubits []uint
	diag   []complex128
	value  uint64
}

// Kind returns the op's shortcut family name ("qft", "add", ...).
func (op *Op) Kind() string { return op.kind.String() }

func (op *Op) String() string {
	src := "matched"
	if op.Annotated {
		src = "annotated"
	}
	ver := ""
	if op.Verified {
		ver = ", verified"
	}
	var what string
	switch op.kind {
	case opQFT:
		what = fmt.Sprintf("%s[%d,%d)", qftName(op.inverse, op.noswap), op.pos, op.pos+op.width)
	case opAdd, opSub, opAddc, opMul, opDiv:
		what = fmt.Sprintf("%s m=%d", op.kind, op.m)
	case opDiag:
		what = fmt.Sprintf("diagonal w=%d", len(op.qubits))
	case opPhaseFlip:
		what = fmt.Sprintf("phaseflip |%0*b>", len(op.qubits), op.value)
	case opReflect:
		what = fmt.Sprintf("reflect-uniform w=%d", len(op.qubits))
	}
	return fmt.Sprintf("%s (gates [%d,%d), %s%s)", what, op.Lo, op.Hi, src, ver)
}

// qftName is the region name of a Fourier op.
func qftName(inverse, noswap bool) string {
	name := "qft"
	if inverse {
		name = "iqft"
	}
	if noswap {
		name += "-noswap"
	}
	return name
}

// Region returns the op's region form: the annotation parseRegion lowers
// back to this op, given the op's diagonal table (DiagTable) for a
// diagonal run. It is how an artifact writes the op.
func (op *Op) Region() circuit.Region {
	name := op.kind.String()
	args := make([]uint64, 0, 3+len(op.regA)+len(op.regB)+len(op.regC)+
		len(op.regR)+len(op.regQ)+len(op.qubits))
	put := func(qs ...uint) {
		for _, q := range qs {
			args = append(args, uint64(q))
		}
	}
	switch op.kind {
	case opQFT:
		name = qftName(op.inverse, op.noswap)
		put(op.pos, op.width)
	case opAdd, opSub:
		put(op.m)
		put(op.regA...)
		put(op.regB...)
		put(op.carry)
	case opAddc:
		put(op.m)
		put(op.regA...)
		put(op.regB...)
		put(op.carry, op.bz)
	case opMul:
		put(op.m)
		put(op.regA...)
		put(op.regB...)
		put(op.regC...)
		put(op.carry)
	case opDiv:
		put(op.m)
		put(op.regR...)
		put(op.regB...)
		put(op.regQ...)
		put(op.bz, op.carry)
	case opDiag, opPhaseFlip, opReflect:
		if op.kind == opReflect {
			name = regionReflect
		}
		put(uint(len(op.qubits)))
		put(op.qubits...)
		if op.kind == opPhaseFlip {
			args = append(args, op.value)
		}
	}
	return circuit.Region{Name: name, Args: args, Lo: op.Lo, Hi: op.Hi}
}

// support returns the sorted set of qubits the op touches.
func (op *Op) support() []uint {
	var qs []uint
	switch op.kind {
	case opQFT:
		qs = make([]uint, op.width)
		for i := range qs {
			qs[i] = op.pos + uint(i)
		}
		return qs
	case opAdd, opSub:
		qs = append(append(append(qs, op.regA...), op.regB...), op.carry)
	case opAddc:
		qs = append(append(append(append(qs, op.regA...), op.regB...), op.carry), op.bz)
	case opMul:
		qs = append(append(append(append(qs, op.regA...), op.regB...), op.regC...), op.carry)
	case opDiv:
		qs = append(append(append(append(qs, op.regR...), op.regB...), op.regQ...), op.bz, op.carry)
	case opDiag, opPhaseFlip, opReflect:
		qs = append(qs, op.qubits...)
	}
	slices.Sort(qs)
	return qs
}

// gather reads the value held by the listed bit positions of i, LSB first.
func gather(i uint64, bits []uint) uint64 {
	var v uint64
	for j, b := range bits {
		v |= ((i >> b) & 1) << uint(j)
	}
	return v
}

// scatter writes the low len(bits) bits of v into the listed positions.
func scatter(i uint64, bits []uint, v uint64) uint64 {
	for j, b := range bits {
		i = bitops.SetBit(i, b, (v>>uint(j))&1)
	}
	return i
}

// fieldIO returns reader/writer closures for a register given as a bit
// list, specialising the common contiguous layout (bits[j] == pos+j) to a
// single shift/mask instead of a per-bit loop — the permutation shortcuts
// run these once per amplitude, so the difference is the difference
// between ~3 and ~3·w word ops per basis state.
func fieldIO(bits []uint) (read func(uint64) uint64, write func(uint64, uint64) uint64) {
	if pos, ok := contiguous(bits); ok {
		mask := bitops.Mask(uint(len(bits)))
		return func(i uint64) uint64 { return (i >> pos) & mask },
			func(i, v uint64) uint64 { return (i &^ (mask << pos)) | ((v & mask) << pos) }
	}
	bs := append([]uint(nil), bits...)
	return func(i uint64) uint64 { return gather(i, bs) },
		func(i, v uint64) uint64 { return scatter(i, bs, v) }
}

// Apply executes the shortcut against a state vector.
func (op *Op) Apply(st *statevec.State) {
	switch op.kind {
	case opQFT:
		op.applyQFT(st)
	case opAdd, opSub, opAddc, opMul, opDiv:
		if add, ok := op.FieldAdd(); ok {
			st.ApplyFieldAdd(add)
			return
		}
		f, _ := op.Permutation()
		st.ApplyPermutation(f)
	case opDiag:
		st.ApplyDiagTable(op.diag, op.qubits)
	case opPhaseFlip:
		op.applyPhaseFlip(st)
	case opReflect:
		// The Grover diffusion H X·MCZ·X H = I - 2|s><s| with |s> the
		// uniform state: a' = a - 2(sum a)/N. Two linear passes replace
		// 4n Hadamard/X sweeps per iteration.
		amps := st.Amplitudes()
		var sum complex128
		for _, a := range amps {
			sum += a
		}
		mu := sum * complex(2/float64(len(amps)), 0)
		for i := range amps {
			amps[i] -= mu
		}
	}
}

// ApplyOn executes the shortcut against a compact register: st holds the
// qubits listed in ascending order, qubits[t] as bit t, and the op's
// support must lie among them. It is Apply on the op's remapped form, the
// one the verifier runs. A reflection acts on every amplitude of the
// state it is handed, so it needs the register to be exactly its support.
func (op *Op) ApplyOn(st *statevec.State, qubits []uint) {
	if uint(len(qubits)) != st.NumQubits() {
		panic(fmt.Sprintf("recognize: compact register of %d qubits lists %d", st.NumQubits(), len(qubits)))
	}
	var rank [64]uint
	var held uint64
	for t, q := range qubits {
		if q >= 64 || (t > 0 && q <= qubits[t-1]) {
			panic(fmt.Sprintf("recognize: compact register qubits %v are not ascending", qubits))
		}
		rank[q], held = uint(t), held|1<<q
	}
	support := op.support()
	for _, q := range support {
		if held&(1<<q) == 0 {
			panic(fmt.Sprintf("recognize: %s op's qubit %d is not in the compact register %v", op.Kind(), q, qubits))
		}
	}
	if op.kind == opReflect && len(support) != len(qubits) {
		panic("recognize: a reflection applies only to a register that is exactly its support")
	}
	op.remapped(func(q uint) uint { return rank[q] }).Apply(st)
}

// basisImage returns the op's action on one basis state as the index and
// phase of the state's image: the permutation's map with phase 1, the
// diagonal table's entry, the flip pattern's sign. ok is false for the QFT
// and the reflection, which send a basis state to a superposition.
func (op *Op) basisImage() (func(uint64) (uint64, complex128), bool) {
	switch op.kind {
	case opDiag:
		return func(b uint64) (uint64, complex128) { return b, op.diag[gather(b, op.qubits)] }, true
	case opPhaseFlip:
		return func(b uint64) (uint64, complex128) {
			if gather(b, op.qubits) == op.value {
				return b, -1
			}
			return b, 1
		}, true
	}
	f, ok := op.Permutation()
	if !ok {
		return nil, false
	}
	return func(b uint64) (uint64, complex128) { return f(b), 1 }, true
}

// contiguous reports whether bits is a run of consecutive positions and
// returns its first.
func contiguous(bits []uint) (pos uint, ok bool) {
	if len(bits) == 0 {
		return 0, false
	}
	for j, b := range bits {
		if b != bits[0]+uint(j) {
			return 0, false
		}
	}
	return bits[0], true
}

// FieldAdd returns the closure-free kernel form of an add, sub, addc or
// mul whose registers are contiguous fields; ok is false for div, for any
// other placement, which keep the general permutation path, and for every
// other kind.
func (op *Op) FieldAdd() (statevec.FieldAdd, bool) {
	aPos, aOK := contiguous(op.regA)
	bPos, bOK := contiguous(op.regB)
	if op.kind == opDiv || !aOK || !bOK {
		return statevec.FieldAdd{}, false
	}
	if op.kind == opMul {
		// C += A·(B + carry): B is the addend, A scales it.
		cPos, cOK := contiguous(op.regC)
		return statevec.FieldAdd{
			APos: bPos, BPos: cPos, Width: op.m, CarryIn: op.carry,
			MulPos: aPos, HasMul: true,
		}, cOK
	}
	return statevec.FieldAdd{
		APos: aPos, BPos: bPos, Width: op.m,
		CarryIn:  op.carry,
		CarryOut: op.bz, HasCarryOut: op.kind == opAddc,
		Subtract: op.kind == opSub,
	}, true
}

func (op *Op) applyQFT(st *statevec.State) {
	amps, workers := st.Amplitudes(), st.Workers()
	// CircuitNoSwap is the reversal swaps composed after the exact QFT
	// (the swap network is an involution), so the noswap variants are the
	// transform with the field bit reversal composed on the output side:
	// S·F forward, F⁻¹·S inverse. On a field at bit 0 those are the
	// plan's reordered orders, which run the butterfly network with no
	// reordering pass.
	if op.pos == 0 && op.noswap {
		order := fft.ReversedOut
		if op.inverse {
			order = fft.ReversedIn
		}
		op.plan.Transform(amps, op.inverse, order, workers)
		return
	}
	reverse := func() {
		pos, w := op.pos, op.width
		mask := bitops.Mask(w) << pos
		st.ApplyPermutation(func(i uint64) uint64 {
			return i&^mask | bitops.ReverseBits(i&mask>>pos, w)<<pos
		})
	}
	if op.noswap && op.inverse {
		reverse()
	}
	op.plan.TransformField(st.Amplitudes(), op.pos, op.inverse, workers)
	if op.noswap && !op.inverse {
		reverse()
	}
}

func (op *Op) applyPhaseFlip(st *statevec.State) {
	base := scatter(0, op.qubits, op.value)
	rest := st.NumQubits() - uint(len(op.qubits))
	amps := st.Amplitudes()
	for o := uint64(0); o < uint64(1)<<rest; o++ {
		idx := bitops.InsertZeroBits(o, op.qubits...) | base
		amps[idx] = -amps[idx]
	}
}

// remapped returns a copy of the op with every qubit position rewritten
// through f — the compact-register form the verifier executes. The caller
// guarantees f preserves relative order on the op's support (it is the
// rank within the sorted support), which keeps contiguous Fourier fields
// contiguous and sorted diagonal layouts sorted.
func (op *Op) remapped(f func(uint) uint) *Op {
	cp := *op
	mapList := func(qs []uint) []uint {
		out := make([]uint, len(qs))
		for i, q := range qs {
			out[i] = f(q)
		}
		return out
	}
	cp.regA, cp.regB, cp.regC = mapList(op.regA), mapList(op.regB), mapList(op.regC)
	cp.regR, cp.regQ = mapList(op.regR), mapList(op.regQ)
	cp.qubits = mapList(op.qubits)
	if op.kind == opQFT {
		cp.pos = f(op.pos)
	}
	switch op.kind {
	case opAdd, opSub, opAddc, opMul, opDiv:
		cp.carry = f(op.carry)
	}
	if op.kind == opDiv || op.kind == opAddc {
		cp.bz = f(op.bz)
	}
	return &cp
}
