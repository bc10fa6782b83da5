package statevec

import (
	"fmt"

	"repro/internal/bitops"
)

// This file holds the kernels behind the emulator's classical shortcuts
// that have enough structure to run without a per-amplitude callback:
// register arithmetic on contiguous fields (the structured case of
// ApplyPermutation) and table-driven diagonals of any width.
// ApplyPermutation is the one callback kernel that stays, as the general
// path of the permutation family.

// FieldAdd describes in-place addition between two register fields:
//
//	B <- B + A + c  (mod 2^Width),   or with Subtract   B <- B - A - c,
//
// where A = [APos, APos+Width) and B = [BPos, BPos+Width) are disjoint
// contiguous qubit fields and c is the bit at CarryIn. With HasCarryOut
// (addition only) the carry out of the top bit is XORed into the qubit
// CarryOut. With HasMul the addend is scaled by a third disjoint field
// M = [MulPos, MulPos+Width) — B <- B ± M·(A + c), the shift-and-add
// multiplier's action — and there is no carry-out form.
type FieldAdd struct {
	APos, BPos, Width uint
	CarryIn           uint
	CarryOut          uint
	HasCarryOut       bool
	Subtract          bool
	MulPos            uint
	HasMul            bool
}

// Check reports why op is not a field addition on an n-qubit register —
// a field out of range, overlapping fields, a carry qubit inside one — or
// nil when it is.
func (op FieldAdd) Check(n uint) error {
	if op.Width == 0 || op.APos+op.Width > n || op.BPos+op.Width > n {
		return fmt.Errorf("statevec: field add of width %d at %d and %d exceeds %d qubits", op.Width, op.APos, op.BPos, n)
	}
	fields := bitops.Mask(op.Width)<<op.APos | bitops.Mask(op.Width)<<op.BPos
	count := 2 * op.Width
	if op.HasMul {
		if op.MulPos+op.Width > n {
			return fmt.Errorf("statevec: field add multiplier of width %d at %d exceeds %d qubits", op.Width, op.MulPos, n)
		}
		if op.HasCarryOut {
			return fmt.Errorf("statevec: field multiply-add has no carry-out form")
		}
		fields |= bitops.Mask(op.Width) << op.MulPos
		count += op.Width
	}
	if bitops.PopCount(fields) != int(count) {
		return fmt.Errorf("statevec: field add registers overlap")
	}
	if op.CarryIn >= n || fields>>op.CarryIn&1 != 0 {
		return fmt.Errorf("statevec: field add carry-in qubit %d out of range or inside a register", op.CarryIn)
	}
	if !op.HasCarryOut {
		return nil
	}
	if op.Subtract {
		return fmt.Errorf("statevec: field subtract has no carry-out form")
	}
	if op.CarryOut >= n || op.CarryOut == op.CarryIn || fields>>op.CarryOut&1 != 0 {
		return fmt.Errorf("statevec: field add carry-out qubit %d out of range or in use", op.CarryOut)
	}
	return nil
}

// checkFieldAdd panics unless op is valid on this register.
func (s *State) checkFieldAdd(op FieldAdd) {
	if err := op.Check(s.n); err != nil {
		panic(err.Error())
	}
}

// ApplyFieldAdd applies the basis-state permutation of op — what a ripple
// adder circuit between the two fields computes — in one out-of-place
// sweep through the State's scratch buffer, like ApplyPermutation but with
// the index arithmetic inline in the chunk loop: no callback per
// amplitude.
//
//qemu:hotpath
func (s *State) ApplyFieldAdd(op FieldAdd) {
	s.checkFieldAdd(op)
	dim := s.Dim()
	out := s.scratchBuf()
	if s.parallelism(dim) <= 1 {
		fieldAddChunk(out, s.amp, op, 0, dim)
	} else {
		amp := s.amp
		s.parallelRange(dim, func(start, end uint64) {
			fieldAddChunk(out, amp, op, start, end)
		})
	}
	s.amp, s.scratch = out, s.amp
}

// fieldAddChunk moves amp[i] to out[f(i)] for i in [start, end), f being
// op's map: B's field replaced by B ± (A + c), the addend scaled by M in
// the multiplier form, and in the carry-out form the carry of that sum
// XORed into its qubit.
//
//qemu:hotpath
func fieldAddChunk(out, amp []complex128, op FieldAdd, start, end uint64) {
	mask := bitops.Mask(op.Width)
	aPos, bPos, cin, w := op.APos, op.BPos, op.CarryIn, op.Width
	// neg is all ones for a subtraction: b - a = b + ^a + 1.
	var neg, coutBit uint64
	if op.Subtract {
		neg = ^uint64(0)
	}
	if op.HasCarryOut {
		coutBit = 1 << op.CarryOut
	}
	if op.HasMul {
		// Masking the shift counts — Check bounds every position below the
		// register width — spares each variable shift its guard: 1.3x on the
		// cache-resident registers multipliers fit in. The loop below keeps
		// its guards: without them emulate-mix's 2^20-amplitude adder read
		// 10% slower, on this host at least.
		aPos, bPos, cin, mPos := aPos&63, bPos&63, cin&63, op.MulPos&63
		for i := start; i < end; i++ {
			av := ((i>>aPos)&mask + (i>>cin)&1) * ((i >> mPos) & mask)
			sum := (i>>bPos)&mask + (av ^ neg) + neg&1
			out[i&^(mask<<bPos)|(sum&mask)<<bPos] = amp[i]
		}
		return
	}
	for i := start; i < end; i++ {
		av := (i>>aPos)&mask + (i>>cin)&1
		sum := (i>>bPos)&mask + (av ^ neg) + neg&1
		out[i&^(mask<<bPos)|(sum&mask)<<bPos^(sum>>w&1)*coutBit] = amp[i]
	}
}

// diagRun is one maximal run of consecutive qubits in a sorted qubit
// list: the run's bits of an amplitude index, shifted down by shift and
// masked, are its bits of the table index.
type diagRun struct {
	shift uint
	mask  uint64
}

// checkDiagTable validates a (table, qubits) pair for ApplyDiagTable and
// splits the qubit list into runs, in State-owned scratch so that the
// kernel allocates nothing in steady state.
func (s *State) checkDiagTable(d []complex128, qubits []uint) []diagRun {
	w := uint(len(qubits))
	if w == 0 || w > s.n {
		panic("statevec: ApplyDiagTable width out of range")
	}
	if uint64(len(d)) != 1<<w {
		panic(fmt.Sprintf("statevec: diagonal table has %d entries, want %d", len(d), uint64(1)<<w))
	}
	for j, q := range qubits {
		if q >= s.n {
			panic("statevec: qubit out of range")
		}
		if j > 0 && q <= qubits[j-1] {
			panic("statevec: ApplyDiagTable qubits not strictly ascending")
		}
	}
	if s.runs == nil {
		s.runs = new([MaxQubits]diagRun)
	}
	k := -1
	for j, q := range qubits {
		if j == 0 || q != qubits[j-1]+1 {
			k++
			s.runs[k] = diagRun{shift: q - uint(j)}
		}
		s.runs[k].mask |= 1 << uint(j)
	}
	return s.runs[:k+1]
}

// ApplyDiagTable multiplies each amplitude by d[x], where x is the value
// read off the listed qubits (bit j of x is qubits[j]) — ApplyDiagN
// without the width bound, for strictly ascending qubits: the table index
// is assembled with one shift and mask per run of consecutive qubits, so a
// window of adjacent qubits costs one. A 2^w-entry table that fits L2 is
// read in index order when the window starts at qubit 0 and in runs of
// equal entries otherwise.
//
//qemu:hotpath
func (s *State) ApplyDiagTable(d []complex128, qubits []uint) {
	runs := s.checkDiagTable(d, qubits)
	dim := s.Dim()
	if s.parallelism(dim) <= 1 {
		diagTableChunk(s.amp, d, runs, 0, dim)
		return
	}
	s.parallelRange(dim, func(start, end uint64) {
		diagTableChunk(s.amp, d, runs, start, end)
	})
}

// diagTableChunk scales amplitudes [start, end) by their table entries.
//
//qemu:hotpath
func diagTableChunk(amp, d []complex128, runs []diagRun, start, end uint64) {
	if len(runs) == 1 {
		shift, mask := runs[0].shift, runs[0].mask
		for i := start; i < end; i++ {
			amp[i] *= d[i>>shift&mask]
		}
		return
	}
	for i := start; i < end; i++ {
		var x uint64
		for _, r := range runs {
			x |= i >> r.shift & r.mask
		}
		amp[i] *= d[x]
	}
}
