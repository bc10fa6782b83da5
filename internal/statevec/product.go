package statevec

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// productRowBits is the widest row FillProduct builds a product state in:
// 2^10 amplitudes, 16 KiB, which stay in L1 while the clusters' factors
// are multiplied into them.
const productRowBits = 10

// Product is a product state laid out for FillProduct: disjoint clusters
// of qubits, each in a state of its own, every other qubit in |0>. The
// register is read as rows of 2^rowBits consecutive amplitudes: a
// cluster's qubits below rowBits index within a row, the rest select the
// row. What NewProduct lays out does not change after it; the merged
// in-row factor a fill writes from is built lazily, once, on the first
// FillProduct or Sum, so a Product is safe to share across States and
// goroutines.
type Product struct {
	n       uint
	rowBits uint
	// factors are the clusters, those with no qubit inside a row first,
	// then by ascending count of in-row qubits, so each row's expansion
	// multiplies its widest factor in last.
	factors []productFactor
	// rowMask is the union of the clusters' row-selecting positions, as
	// row-index bits: every other row of a fresh register stays zero.
	rowMask uint64

	// merge builds fill and sum on first use (FillProduct, Sum), so a
	// product that is compiled, decoded or verified but never filled does
	// not pay for them.
	merge sync.Once
	// fill is factors with every cluster that lies wholly inside a row
	// multiplied into one in-row factor, in factors' order: a row then
	// writes each of that factor's amplitudes once instead of expanding
	// cluster by cluster.
	fill []productFactor
	// sum is the sum of the product's amplitudes: the product of each
	// cluster's sum.
	sum complex128
}

// productFactor is one cluster as a row sees it.
type productFactor struct {
	// amps is the cluster's 2^w state; bit t of its index is the cluster's
	// t-th qubit in ascending order, so the in-row qubits are its low bits.
	amps []complex128
	// low counts the in-row qubits, mask holds their row offsets and
	// dep[k] is the row offset of their value k.
	low  uint
	mask uint64
	dep  []uint32
	// rows are the row-index bits of the cluster's other qubits, ascending.
	rows []uint
}

// NewProduct lays out the product of the given clusters over an n-qubit
// register for states whose rows may be at most 2^maxRowBits amplitudes
// (a shard's width, when the register is sharded). qubits[i] lists
// cluster i's qubits in ascending order and amps[i] is its 2^len(qubits[i])
// state, bit t of the index standing for qubits[i][t]. Clusters must be
// disjoint; the vectors are kept, not copied.
func NewProduct(n, maxRowBits uint, qubits [][]uint, amps [][]complex128) *Product {
	if len(qubits) != len(amps) {
		panic("statevec: product needs one state per cluster")
	}
	p := &Product{n: n, rowBits: min(maxRowBits, n, productRowBits)}
	var seen uint64
	for i, qs := range qubits {
		if len(qs) == 0 || len(amps[i]) != 1<<len(qs) {
			panic(fmt.Sprintf("statevec: cluster %d has %d qubits and %d amplitudes", i, len(qs), len(amps[i])))
		}
		f := productFactor{amps: amps[i]}
		for t, q := range qs {
			if q >= n || seen&(1<<q) != 0 || (t > 0 && q <= qs[t-1]) {
				panic(fmt.Sprintf("statevec: cluster %d qubits %v are not ascending, in range and disjoint", i, qs))
			}
			seen |= 1 << q
			if q < p.rowBits {
				f.low++
				f.mask |= 1 << q
			} else {
				f.rows = append(f.rows, q-p.rowBits)
				p.rowMask |= 1 << (q - p.rowBits)
			}
		}
		f.dep = make([]uint32, 1<<f.low)
		for k := range f.dep {
			f.dep[k] = uint32(deposit(uint64(k), f.mask))
		}
		p.factors = append(p.factors, f)
	}
	// Insertion sort by in-row width: stable, and clusters are few.
	for i := 1; i < len(p.factors); i++ {
		for j := i; j > 0 && p.factors[j].low < p.factors[j-1].low; j-- {
			p.factors[j], p.factors[j-1] = p.factors[j-1], p.factors[j]
		}
	}
	return p
}

// Sum returns the sum of the product's amplitudes over the whole register:
// the product of each cluster's sum, every other amplitude being zero.
func (p *Product) Sum() complex128 {
	p.merge.Do(p.build)
	return p.sum
}

// build multiplies every cluster that lies wholly inside a row into one
// in-row factor: a fill of row 0 from those clusters alone (fillRow), read
// back at the merged factor's offsets. The merged factor takes its place
// by in-row width; clusters that select rows keep their own factors.
func (p *Product) build() {
	p.sum = 1
	for i := range p.factors {
		var s complex128
		for _, a := range p.factors[i].amps {
			s += a
		}
		p.sum *= s
	}
	var in Product
	for _, f := range p.factors {
		if f.low > 0 && len(f.rows) == 0 {
			in.fill = append(in.fill, f)
		}
	}
	if len(in.fill) < 2 {
		p.fill = p.factors
		return
	}
	row := make([]complex128, 1<<p.rowBits)
	in.fillRow(row, 0)
	merged := productFactor{}
	for _, f := range in.fill {
		merged.mask |= f.mask
		merged.low += f.low
	}
	merged.amps = make([]complex128, 1<<merged.low)
	merged.dep = make([]uint32, 1<<merged.low)
	for k := range merged.dep {
		merged.dep[k] = uint32(deposit(uint64(k), merged.mask))
		merged.amps[k] = row[merged.dep[k]]
	}
	for _, f := range p.factors {
		if f.low == 0 || len(f.rows) > 0 {
			p.fill = append(p.fill, f)
		}
	}
	i := len(p.fill)
	for i > 0 && p.fill[i-1].low > merged.low {
		i--
	}
	p.fill = slices.Insert(p.fill, i, merged)
}

// deposit scatters the low bits of v to the set positions of mask.
func deposit(v, mask uint64) uint64 {
	var out uint64
	for ; mask != 0; mask &= mask - 1 {
		if v&1 != 0 {
			out |= mask & -mask
		}
		v >>= 1
	}
	return out
}

// NumQubits returns the register width the product was laid out for.
func (p *Product) NumQubits() uint { return p.n }

// Bytes is what the product holds as laid out: the clusters' states and
// the row offset tables. The merged in-row factor built for the fills is
// not counted, so the figure is the same before a fill and after.
func (p *Product) Bytes() int {
	b := 0
	for i := range p.factors {
		b += 16*len(p.factors[i].amps) + 4*len(p.factors[i].dep)
	}
	return b
}

// Qubits counts the qubits the clusters cover; a fill writes 2^Qubits
// amplitudes.
func (p *Product) Qubits() uint {
	q := uint(bits.OnesCount64(p.rowMask))
	for i := range p.factors {
		q += p.factors[i].low
	}
	return q
}

// Rows is how many of a shard's rows FillProduct writes: the rows that
// hold a nonzero amplitude of the product, out of the 2^(L-rowBits) a
// shard of L qubits holds.
func (p *Product) Rows(shardQubits uint) uint64 {
	return 1 << bits.OnesCount64(p.rowMask&(1<<(shardQubits-p.rowBits)-1))
}

// FillProduct writes share part (of parts) of the product's amplitudes
// into s, a state that holds |0...0> — or, sharded, the node'th shard of
// it: s holds the register's low NumQubits() positions and node is the
// value of the positions above. Only amplitudes the product makes nonzero
// are written; the rest keep the zero they hold, so the fill costs
// 2^Qubits() writes, not 2^n. The shares of one fill touch disjoint rows
// and may run concurrently. It allocates nothing.
//
//qemu:hotpath
func (s *State) FillProduct(p *Product, node uint64, part, parts int) {
	if s.n < p.rowBits || s.n > p.n || node >= 1<<(p.n-s.n) {
		panic("statevec: product does not fit the shard")
	}
	p.merge.Do(p.build)
	shardRows := s.n - p.rowBits
	nodeRow := node << shardRows
	if nodeRow&^p.rowMask != 0 {
		return // a node bit the product holds at |0>: the shard stays zero
	}
	free := p.rowMask & (1<<shardRows - 1)
	count := uint64(1) << bits.OnesCount64(free)
	lo, hi := uint64(part)*count/uint64(parts), uint64(part+1)*count/uint64(parts)
	width := uint64(1) << p.rowBits
	for t := lo; t < hi; t++ {
		r := deposit(t, free)
		p.fillRow(s.amp[r*width:(r+1)*width], nodeRow|r)
	}
}

// fillRow writes the nonzero amplitudes of global row h into row: the
// factors with no in-row qubit fold into one scalar, then each other
// factor's slice for this row expands the written set in place, the set's
// entries read before they are overwritten.
//
//qemu:hotpath
func (p *Product) fillRow(row []complex128, h uint64) {
	scale := complex(1, 0)
	var written uint64 // row offsets already holding their final factor
	first := true
	for i := range p.fill {
		f := &p.fill[i]
		var sel uint64
		for t, b := range f.rows {
			sel |= (h >> b & 1) << t
		}
		w := f.amps[sel<<f.low : (sel+1)<<f.low]
		if f.low == 0 {
			scale *= w[0]
			continue
		}
		if first {
			row[0], first = scale, false
		}
		dep := f.dep
		for j := uint64(0); ; j = (j - written) & written {
			v := row[j]
			for k := len(w) - 1; k >= 0; k-- {
				row[j|uint64(dep[k])] = v * w[k]
			}
			if j == written {
				break
			}
		}
		written |= f.mask
	}
	if first {
		row[0] = scale
	}
}
