package statevec

import (
	"fmt"
	"math/bits"

	"repro/internal/bitops"
	"repro/internal/par"
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

// diagRun is one maximal run of consecutive qubits in a sorted qubit
// list: the run's bits of an amplitude index, shifted down by shift and
// masked, are its bits of the table index.
type diagRun struct {
	shift uint
	mask  uint64
}

// checkDiagTable validates a (table, qubits) pair for ApplyDiagTable.
func (s *State) checkDiagTable(d []complex128, qubits []uint) {
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
}

// diagRuns splits a validated ascending qubit list into runs, in
// State-owned scratch so that the kernel allocates nothing in steady
// state.
func (s *State) diagRuns(qubits []uint) []diagRun {
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
// without the width bound, for strictly ascending qubits. Up to
// MaxMatrixNQubits it is ApplyDiagN's block sweep; wider, the table
// index is assembled with one shift and mask per run of consecutive
// qubits, so a window of adjacent qubits costs one. A 2^w-entry table
// that fits L2 is read in index order when the window starts at qubit 0
// and in runs of equal entries otherwise.
//
//qemu:hotpath
func (s *State) ApplyDiagTable(d []complex128, qubits []uint) {
	s.checkDiagTable(d, qubits)
	if len(qubits) <= MaxMatrixNQubits {
		s.ApplyDiagN(d, qubits)
		return
	}
	runs := s.diagRuns(qubits)
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
		amp[i] *= d[tableIndex(i, runs)]
	}
}

// ApplyFieldAdd applies the basis-state permutation of op — what a ripple
// adder circuit between the two fields computes — in one out-of-place pass
// through the State's scratch buffer, like ApplyPermutation but with the
// index arithmetic inline: no callback per amplitude. It is
// ApplyFieldAddDiag without a table, on the same kernels.
//
//qemu:hotpath
func (s *State) ApplyFieldAdd(op FieldAdd) {
	s.checkFieldAdd(op)
	s.fieldAdd(op, nil, nil, false)
}

// ApplyFieldAddDiag applies the field addition op and the diagonal table d
// over qubits (as ApplyDiagTable reads them) in one out-of-place pass:
// with diagFirst the diagonal runs first, out[f(i)] = amp[i]·d[x(i)];
// otherwise the addition does, out[f(i)] = amp[i]·d[x(f(i))]. Every
// amplitude is multiplied by the entry the diagonal alone would multiply
// it by, so the result is ApplyFieldAdd's and ApplyDiagTable's, in either
// order, bit for bit — one pass where the two pay two.
//
//qemu:hotpath
func (s *State) ApplyFieldAddDiag(op FieldAdd, d []complex128, qubits []uint, diagFirst bool) {
	s.checkFieldAdd(op)
	s.checkDiagTable(d, qubits)
	s.fieldAdd(op, d, s.diagRuns(qubits), diagFirst)
}

// The field add's one pass runs on one of two kernels.
//
// The tiled kernel views each block of the register above B = [BPos,
// BPos+Width) as a matrix: the rows are B's 2^w values, 2^BPos amplitudes
// apart, and the columns are the 2^BPos amplitudes below B. Every field
// that sets the shift s = ±(A + c)·M is disjoint from B, so s is a
// function of the column and the block, and out[r][x] = amp[(r - s(x)) mod
// 2^w][x]. The pass is split into (block, T-column tile) units over
// par.For, and every read of the state is a run of at least T amplitudes:
// the prefetcher follows those, where the scatter's writes cross a page
// per amplitude.
//   - Where s is one value across a tile, a unit is a rotation of the row
//     axis: each output row's T-wide slice is a run copied from one source
//     row, and when nothing below B sets s the tile is whole rows and the
//     block two runs.
//   - Otherwise a unit packs its source runs into a slab the State owns
//     and writes each output row's slice in order, reading the slab skewed
//     (packed). Across a tile s takes at most 2^window consecutive values
//     (an addend's bits inside the tile take all theirs, a product the
//     whole field), so the slab keeps 2^window rows, 2^(window+tile) ≤
//     2^15 amplitudes (512 KiB) and in L2; emulate-mix's adder packs
//     64-column tiles into 64 KiB.
//
// A rotation is taken when its tile, cut at the lowest qubit below B that
// sets s, is at least as wide as the packed one: narrower rotated runs
// over many rows lose to the pack (n = 20, one worker: runs of four
// amplitudes over 64 rows read 13 ns/amp, the pack 3.6). The diagonal
// table rides on whichever copy reads its index: the pack or the rotated
// run for diagFirst, the write otherwise.
//
// The scatter, out[f(i)] = amp[i] in index order, is kept for the layouts
// a tile cannot take:
//   - the carry-out form: the carry moves an amplitude out of its row, to
//     another column or block;
//   - rows shorter than a cache line (four amplitudes) under a shift that
//     varies along them: B at qubit 0 or 1 above an addend, multiplier or
//     carry-in bit;
//   - blocks of fewer than four amplitudes (a one-qubit B at qubit 0 under
//     a shift set above it), where two calls per two amplitudes cost more
//     than the scatter.
const (
	fieldSlabLog = 15 // log2 of a worker's slab, in amplitudes
	fieldTileLog = 6  // log2 of the widest packed tile
	fieldRunLog  = 2  // log2 of the shortest run a tile reads: one 64-byte line
)

// fieldPass is one field add's pass: the buffers, the table and its runs,
// and the tiling plan.
type fieldPass struct {
	out, amp, d []complex128
	runs        []diagRun
	op          FieldAdd
	diagFirst   bool
	// tile is log2 of the columns a unit covers, pack whether a unit goes
	// through the slab, units the count of (block, tile) pairs.
	tile, window uint
	pack         bool
	units        uint64
}

// fieldWorker is one chunk's scratch: the slab and the per-column slab
// offsets of a packed unit.
type fieldWorker struct {
	slab []complex128
	off  [1 << fieldTileLog]uint64
}

// fieldScratch is the tiled kernel's State-owned scratch: one fieldWorker
// per chunk, the pass in flight, and its chunk function bound once, so a
// call hands par.For nothing new.
type fieldScratch struct {
	workers []fieldWorker
	pass    fieldPass
	chunks  int
	run     func(c int)
}

// fieldAdd is the dispatcher both entry points share: the tiled kernel
// where plan takes the layout, the scatter elsewhere. d is nil for a pass
// without a table.
//
//qemu:hotpath
func (s *State) fieldAdd(op FieldAdd, d []complex128, runs []diagRun, diagFirst bool) {
	dim := s.Dim()
	p := fieldPass{out: s.scratchBuf(), amp: s.amp, d: d, runs: runs, op: op, diagFirst: diagFirst}
	switch {
	case p.plan(s.n):
		fs := s.fieldScratchFor(int(min(uint64(s.parallelism(dim)), p.units)), p.slabLen())
		fs.pass = p
		par.For(fs.chunks, fs.run)
		fs.pass = fieldPass{}
	case s.parallelism(dim) <= 1:
		p.scatter(0, dim)
	default:
		// The closure captures a copy, so p itself stays on the stack and
		// the branches above allocate nothing.
		q := p
		s.parallelRange(dim, func(start, end uint64) { q.scatter(start, end) })
	}
	s.amp, s.scratch = p.out, s.amp
}

// plan chooses the tiling of p.op on an n-qubit register and reports
// whether the tiled kernel takes it.
func (p *fieldPass) plan(n uint) bool {
	op := p.op
	if op.HasCarryOut {
		return false
	}
	w, bPos := op.Width, op.BPos
	// low holds the qubits below B that set the shift.
	below := bitops.Mask(bPos)
	low := (bitops.Mask(w)<<op.APos | 1<<op.CarryIn) & below
	if op.HasMul {
		low |= bitops.Mask(w) << op.MulPos & below
	}
	// pack is the widest tile whose window fits a slab.
	pack := uint(0)
	for t := min(bPos, fieldTileLog); t >= fieldRunLog && pack == 0; t-- {
		if op.windowLog(t)+t <= fieldSlabLog {
			pack = t
		}
	}
	switch rot := uint(bits.TrailingZeros64(low)); {
	case low == 0 && bPos+w >= fieldRunLog:
		p.tile = bPos
	case low != 0 && rot >= fieldRunLog && rot >= pack:
		p.tile = rot
	case low != 0 && pack >= fieldRunLog:
		p.tile, p.window, p.pack = pack, op.windowLog(pack), true
	default:
		return false
	}
	p.units = uint64(1) << (n - w - p.tile)
	return true
}

// slabLen is the slab a packed unit fills, zero for a rotation.
func (p *fieldPass) slabLen() int {
	if !p.pack {
		return 0
	}
	return 1 << (p.window + p.tile)
}

// windowLog returns log2 of the rows a packed tile of 2^tile columns keeps
// in its slab: the shift takes at most that many consecutive values (mod
// 2^Width) across such a tile. An addend's bits inside the tile take every
// value and the carry-in one more; a product spans the whole field.
func (op *FieldAdd) windowLog(tile uint) uint {
	if op.HasMul {
		return op.Width
	}
	k := uint(0)
	if op.APos < tile {
		k = min(op.Width, tile-op.APos)
	}
	if op.CarryIn < tile {
		k++
	}
	return min(k, op.Width)
}

// fieldScratchFor returns the State's tiled-kernel scratch set for chunks
// chunks, each with a slab of at least slab amplitudes.
func (s *State) fieldScratchFor(chunks, slab int) *fieldScratch {
	fs := s.field
	if fs == nil {
		fs = &fieldScratch{}
		fs.run = fs.chunk
		s.field = fs
	}
	if len(fs.workers) < chunks {
		fs.workers = append(fs.workers, make([]fieldWorker, chunks-len(fs.workers))...)
	}
	for c := range chunks {
		if len(fs.workers[c].slab) < slab {
			fs.workers[c].slab = make([]complex128, slab)
		}
	}
	fs.chunks = chunks
	return fs
}

// chunk runs chunk c's share of the pass's units.
//
//qemu:hotpath
func (fs *fieldScratch) chunk(c int) {
	p, k := &fs.pass, uint64(fs.chunks)
	for u := p.units * uint64(c) / k; u < p.units*uint64(c+1)/k; u++ {
		if p.pack {
			p.packed(&fs.workers[c], u)
		} else {
			p.rotate(u)
		}
	}
}

// shift returns what op adds to B at index i, mod 2^Width: B's own bits
// do not enter it.
func (op *FieldAdd) shift(i uint64) uint64 {
	mask := bitops.Mask(op.Width)
	a := (i>>(op.APos&63))&mask + (i>>(op.CarryIn&63))&1
	if op.HasMul {
		a *= (i >> (op.MulPos & 63)) & mask
	}
	if op.Subtract {
		return -a
	}
	return a
}

// base returns the index of unit u's first amplitude: row 0 of its block,
// its tile's first column.
func (p *fieldPass) base(u uint64) uint64 {
	v, below := u<<p.tile, bitops.Mask(p.op.BPos)
	return (v&^below)<<p.op.Width | v&below
}

// rotate runs a unit whose shift is one value across its tile: output row
// r's slice is source row r - s's.
//
//qemu:hotpath
func (p *fieldPass) rotate(u uint64) {
	w, bPos := p.op.Width&63, p.op.BPos&63
	mask := bitops.Mask(w)
	base := p.base(u)
	s := p.op.shift(base) & mask
	if p.tile == bPos {
		// Whole rows: the block's rows [s, 2^w) are its source rows
		// [0, 2^w - s) and rows [0, s) the rest, each one run.
		blk, cut := uint64(1)<<(bPos+w), s<<bPos
		p.move(base+cut, base, blk-cut)
		p.move(base, base+blk-cut, cut)
		return
	}
	t := uint64(1) << p.tile
	for r := uint64(0); r <= mask; r++ {
		p.move(base+r<<bPos, base+(r-s)&mask<<bPos, t)
	}
}

// move copies the n amplitudes at src to dst, through the table when
// there is one: scaled by the entries of the source indices (diagFirst)
// or of the destination ones.
//
//qemu:hotpath
func (p *fieldPass) move(dst, src, n uint64) {
	o, a := p.out[dst:dst+n], p.amp[src:src+n]
	switch {
	case p.d == nil:
		copy(o, a)
	case p.diagFirst:
		scaleRun(o, a, p.d, p.runs, src)
	default:
		scaleRun(o, a, p.d, p.runs, dst)
	}
}

// packed runs a unit whose shift varies across its tile. Output row r's
// slice reads source row r - s(x) at column x, and across the tile s takes
// the values [lo, lo + spread], so the rows are written in the order that
// reads the source rows 0, 1, ... each once: step k writes output row
// lo + spread + k from source rows [k, k + spread]. The source runs of T
// amplitudes go into the worker's slab as they are first needed (through
// the table, for diagFirst), row j at slot j mod 2^window, and each output
// row's slice is read from the slab skewed, slab[(r - s(x)) mod
// 2^window][x] (through the table, for a diagonal after the add). A window
// narrower than the field re-reads the first spread rows at the end.
//
//qemu:hotpath
func (p *fieldPass) packed(wk *fieldWorker, u uint64) {
	w, bPos, tile := p.op.Width&63, p.op.BPos&63, p.tile&63
	base, t := p.base(u), uint64(1)<<tile
	rows, win := uint64(1)<<w, uint64(1)<<p.window
	mask, half := rows-1, rows>>1
	slab := wk.slab[:win<<tile]
	off := wk.off[:t]
	s0 := p.op.shift(base)
	var lo, hi uint64 // s(x) - s0 lies in [lo, hi], signed, mod 2^w
	for x := range off {
		s := p.op.shift(base + uint64(x))
		d := (s-s0+half)&mask - half
		if int64(d) < int64(lo) {
			lo = d
		}
		if int64(d) > int64(hi) {
			hi = d
		}
		off[x] = uint64(x) - s<<tile
	}
	spread, loads := hi-lo, rows
	if win < rows {
		loads += hi - lo
	}
	first, next := s0+hi, uint64(0)
	for k := uint64(0); k < rows; k++ {
		for ; next <= k+spread && next < loads; next++ {
			src := base + next&mask<<bPos
			row, a := slab[(next&(win-1))<<tile:][:t], p.amp[src:src+t]
			if p.d != nil && p.diagFirst {
				scaleRun(row, a, p.d, p.runs, src)
			} else {
				copy(row, a)
			}
		}
		r := (first + k) & mask
		dst := base + r<<bPos
		o := p.out[dst : dst+t]
		if p.d == nil || p.diagFirst {
			skewRow(o, slab, off, r<<tile)
		} else {
			skewRowScaled(o, slab, off, r<<tile, p.d, p.runs, dst)
		}
	}
}

// skewRow sets o[x] = slab[(rt + off[x]) mod len(slab)], len(slab) a
// power of two.
//
//qemu:hotpath
func skewRow(o, slab []complex128, off []uint64, rt uint64) {
	m := uint64(len(slab) - 1)
	o = o[:len(off)]
	for x, k := range off {
		o[x] = slab[(rt+k)&m]
	}
}

// skewRowScaled is skewRow with each amplitude scaled by d[x(at+x)].
//
//qemu:hotpath
func skewRowScaled(o, slab []complex128, off []uint64, rt uint64, d []complex128, runs []diagRun, at uint64) {
	m := uint64(len(slab) - 1)
	o = o[:len(off)]
	if len(runs) == 1 {
		shift, mask := runs[0].shift&63, runs[0].mask
		for x, k := range off {
			o[x] = slab[(rt+k)&m] * d[(at+uint64(x))>>shift&mask]
		}
		return
	}
	for x, k := range off {
		o[x] = slab[(rt+k)&m] * d[tableIndex(at+uint64(x), runs)]
	}
}

// scaleRun sets dst[k] = src[k]·d[x(at+k)], x being the table index the
// runs read off an amplitude index.
//
//qemu:hotpath
func scaleRun(dst, src, d []complex128, runs []diagRun, at uint64) {
	src = src[:len(dst)]
	if len(runs) == 1 {
		shift, mask := runs[0].shift&63, runs[0].mask
		for k := range dst {
			dst[k] = src[k] * d[(at+uint64(k))>>shift&mask]
		}
		return
	}
	for k := range dst {
		dst[k] = src[k] * d[tableIndex(at+uint64(k), runs)]
	}
}

// tableIndex is the table index the runs read off amplitude index i.
func tableIndex(i uint64, runs []diagRun) uint64 {
	var x uint64
	for _, r := range runs {
		x |= i >> r.shift & r.mask
	}
	return x
}

// scatter moves amp[i] to out[f(i)] for i in [start, end), f being op's
// map: B's field replaced by B ± (A + c), the addend scaled by M in the
// multiplier form (and by one in every other), and in the carry-out form
// the carry of that sum XORed into its qubit. With a table each amplitude
// is multiplied by the entry of i (diagFirst) or of f(i).
//
//qemu:hotpath
func (p *fieldPass) scatter(start, end uint64) {
	op, out, amp, d := &p.op, p.out, p.amp, p.d
	mask := bitops.Mask(op.Width)
	aPos, bPos, cin, w := op.APos&63, op.BPos&63, op.CarryIn&63, op.Width&63
	mPos, mMask, mOne := op.MulPos&63, uint64(0), uint64(1)
	if op.HasMul {
		mMask, mOne = mask, 0
	}
	var neg, coutBit, before uint64
	if op.Subtract {
		neg = ^uint64(0)
	}
	if op.HasCarryOut {
		coutBit = 1 << op.CarryOut
	}
	if p.diagFirst {
		before = ^uint64(0)
	}
	// rmask is non-zero for a table read off one run of qubits.
	var shift uint
	var rmask uint64
	if len(p.runs) == 1 {
		shift, rmask = p.runs[0].shift&63, p.runs[0].mask
	}
	for i := start; i < end; i++ {
		av := ((i>>aPos)&mask + (i>>cin)&1) * ((i>>mPos)&mMask | mOne)
		sum := (i>>bPos)&mask + (av ^ neg) + neg&1
		j := i&^(mask<<bPos) | (sum&mask)<<bPos ^ (sum>>w&1)*coutBit
		switch {
		case d == nil:
			out[j] = amp[i]
		case rmask != 0:
			out[j] = amp[i] * d[(i&before|j&^before)>>shift&rmask]
		default:
			out[j] = amp[i] * d[tableIndex(i&before|j&^before, p.runs)]
		}
	}
}
