package recognize

import "math/bits"

// A diagonal run's table is often a product: CZs on disjoint pairs, a
// phase on a qubit no other gate touches. Factors splits such a table into
// diagonals on disjoint qubit blocks, so a caller that places qubits in
// clusters (the backend's product prefix) can apply each block where its
// qubits are instead of joining the whole support.
//
// The split is proposed at base point 0 and then proved. Qubits i and j
// interact when the table's mixed product there is not flat,
// d(0)·d(eᵢ+eⱼ) ≠ d(eᵢ)·d(eⱼ) beyond matchEps; the blocks are the
// connected components of that relation, O(k²) reads of a k-qubit table.
// The test sees only pairwise interaction at one point — a CCZ's sign on
// |111> shows at none of them — so the proposal is accepted only when the
// factors rebuild every entry of the table within matchEps.

// FactorSupports proposes the qubit blocks Factors would split op into,
// as masks of the full register's qubits ordered by their lowest qubit,
// without the rebuild that proves them. It is nil for every op but a
// diagonal run, and for one whose proposal is a single block.
func (op *Op) FactorSupports() []uint64 {
	local := op.proposeBlocks()
	if len(local) < 2 {
		return nil
	}
	masks := make([]uint64, len(local))
	for b, m := range local {
		for r := m; r != 0; r &= r - 1 {
			masks[b] |= 1 << op.qubits[bits.TrailingZeros64(r)]
		}
	}
	return masks
}

// Factors returns op as the finest product of diagonals on disjoint qubit
// blocks that it can prove: for a diagonal run whose proposed blocks
// (FactorSupports) rebuild its table, one diagonal per block, ordered by
// lowest qubit, the first carrying the table's global phase d(0); for
// every other op, and a diagonal that does not split, op alone. Each
// factor is a diagonal run on its block's qubits with op's gate range and
// flags, so Apply and ApplyOn run it as they run op.
func (op *Op) Factors() []*Op {
	blocks := op.proposeBlocks()
	if len(blocks) < 2 {
		return []*Op{op}
	}
	d0 := op.diag[0]
	fs := make([]*Op, len(blocks))
	for b, m := range blocks {
		f := &Op{Lo: op.Lo, Hi: op.Hi, Annotated: op.Annotated, Verified: op.Verified, kind: opDiag}
		for r := m; r != 0; r &= r - 1 {
			f.qubits = append(f.qubits, op.qubits[bits.TrailingZeros64(r)])
		}
		f.diag = make([]complex128, 1<<len(f.qubits))
		for y := range f.diag {
			f.diag[y] = op.diag[deposit(uint64(y), m)]
			if b > 0 {
				f.diag[y] /= d0
			}
		}
		fs[b] = f
	}
	for x, want := range op.diag {
		got := complex(1, 0)
		for b, m := range blocks {
			got *= fs[b].diag[extract(uint64(x), m)]
		}
		if !closeC(got, want) {
			return []*Op{op}
		}
	}
	return fs
}

// proposeBlocks groups a diagonal run's table bits into the connected
// components of the mixed-product test at base point 0, as masks of table
// bits ordered by their lowest bit. It is nil for every other op, and
// for a table that is not 2^k entries long.
func (op *Op) proposeBlocks() []uint64 {
	k := len(op.qubits)
	if op.kind != opDiag || len(op.diag) != 1<<k {
		return nil
	}
	// root[i] is a table bit of i's block; blocks merge by pointing one
	// root at the other, always the higher at the lower.
	var root [64]int
	for i := range k {
		root[i] = i
	}
	find := func(i int) int {
		for root[i] != i {
			i = root[i]
		}
		return i
	}
	d := op.diag
	for i := range k {
		for j := i + 1; j < k; j++ {
			if closeC(d[0]*d[1<<i|1<<j], d[1<<i]*d[1<<j]) {
				continue
			}
			if a, b := find(i), find(j); a != b {
				root[max(a, b)] = min(a, b)
			}
		}
	}
	var blocks []uint64
	var at [64]int // 1 + the block index of each root
	for i := range k {
		r := find(i)
		if at[r] == 0 {
			blocks = append(blocks, 0)
			at[r] = len(blocks)
		}
		blocks[at[r]-1] |= 1 << i
	}
	return blocks
}

// extract gathers the bits of x under mask into the low bits, in order.
func extract(x, mask uint64) uint64 {
	var v uint64
	for t := uint(0); mask != 0; mask &= mask - 1 {
		v |= (x >> bits.TrailingZeros64(mask) & 1) << t
		t++
	}
	return v
}

// deposit spreads the low bits of v over the bits of mask, in order.
func deposit(v, mask uint64) uint64 {
	var x uint64
	for ; mask != 0; mask &= mask - 1 {
		x |= (v & 1) << bits.TrailingZeros64(mask)
		v >>= 1
	}
	return x
}
