package backend

import (
	"math/bits"
	"sync"

	"repro/internal/bitops"
	"repro/internal/cluster"
	"repro/internal/fuse"
	"repro/internal/gates"
	"repro/internal/recognize"
	"repro/internal/statevec"
)

// The product prefix. Every run starts from |0...0>, and until gates join
// qubits past a small cluster the state is a product of a few 2^k-vectors.
// A noise-free cluster executable whose first unit is a gate segment
// carries the prefix over a span of units [0, End): the gates of the
// span's gate segments that act only on qubits no earlier remainder gate
// has touched, grouped by interaction into clusters, and every recognised
// op of the span, whose support joins the clusters it touches as a gate's
// qubits would — a diagonal that is a product of diagonals on disjoint
// blocks (recognize.Op.Factors) joins block by block. Each prefix gate and
// op commutes past every remainder gate before it (their supports are
// disjoint), so the span is the prefix followed by the remainder, each in
// source order. The lowering simulates each cluster's vector once — an op
// or factor as itself, on its cluster's compact register — and a fresh
// register (cluster.Cluster.Fresh) starts as their product, written in one
// fill: the prefix's gates never sweep the state, and the span's ops never
// run.

// maxClusterQubits bounds a prefix cluster whatever the register width: a
// cluster's vector is simulated at lowering, 16·2^k bytes of it.
const maxClusterQubits = 16

// Prefix is a fresh run's product prefix over units [0, End). It rides on
// unit 0, a gate segment, whose Fused and Sched then plan the span's
// remainder: every gate of the span's segments not in the prefix. The
// span's other gate units carry no plan; a register that is not fresh runs
// each spanned unit's own lowering (unitSched).
type Prefix struct {
	// End bounds the span: units [0, End). Every op unit in it is absorbed
	// into the prefix.
	End int
	// Index lists the prefix gates and Rest the remainder, each by gate
	// number in the source circuit, ascending; between them they hold
	// every gate of the span's gate units once.
	Index, Rest []int
	// Clusters are the prefix's qubit clusters, each in ascending order,
	// ordered by their lowest qubit; Vectors[i] is cluster i's state after
	// its prefix gates and ops, bit t of the index standing for
	// Clusters[i][t]. Qubits in no cluster stay |0>.
	Clusters [][]uint
	Vectors  [][]complex128
	// Fill is the clusters' product laid out for the target's shards: what
	// a fresh register runs. Units is what the prefix takes off the span's
	// gate segments in fuse's sweep units: their cost less the
	// remainder's. The absorbed ops come off beside it.
	Fill  *statevec.Product
	Units float64

	// factors lists each absorbed op's factors (recognize.Op.Factors), in
	// unit order: what the clusters' vectors applied.
	factors [][]*recognize.Op
	// own[k] is spanned unit k's own lowering, for a register that is not
	// fresh.
	own   []ownLowering
	width int
	n, L  uint
}

// ownLowering is a gate unit's whole-segment schedule, planned once.
type ownLowering struct {
	once  sync.Once
	sched *cluster.Schedule
}

// unitSched returns what a register that is not fresh runs for spanned
// gate unit k, whose gates are gs: the unit's own fusion plan and
// schedule, as if it carried no prefix. It is planned on first use and
// shared after: a fresh run of the whole span never needs it, so
// compiling and decoding do not pay for it.
func (p *Prefix) unitSched(k int, gs []gates.Gate) *cluster.Schedule {
	l := &p.own[k]
	l.once.Do(func() {
		_, s, err := lowerSegment(gs, p.n, p.L, p.width)
		if err != nil {
			// The width is clamped to the shard (effectiveFuseWidth), so
			// no block needs more local qubits than a node holds.
			panic("backend: spanned unit schedule: " + err.Error())
		}
		l.sched = s
	})
	return l.sched
}

// prefixCap is the widest cluster the prefix forms on an n-qubit
// register: ⌊n/2⌋, at most maxClusterQubits.
func prefixCap(n uint) int { return int(min(n/2, maxClusterQubits)) }

// carry grows the product prefix while the lowering appends units: a gate
// joins it when none of its qubits was touched by an earlier remainder
// gate and the clusters it joins together stay within prefixCap qubits;
// otherwise it is a remainder gate and its qubits are closed to the prefix
// from then on. An op joins the same way, with its support (or each of its
// factors' supports) for qubits, and one that cannot ends the span before
// it.
type carry struct {
	capQubits int
	closed    uint64
	of        [64]uint64 // of[q]: the support of qubit q's cluster, 0 if none
	// index and rest are the prefix and remainder gates so far, by source
	// gate number. The span runs to end, past the last unit that joined the
	// prefix; restEnd counts the remainder gates up to there.
	index, rest  []int
	end, restEnd int
	// factors lists each absorbed op's factors, in unit order.
	factors [][]*recognize.Op
}

func newCarry(n uint) *carry { return &carry{capQubits: prefixCap(n)} }

// join merges the clusters mask touches into one, when that is allowed.
func (c *carry) join(mask uint64) bool {
	joined := mask
	for m := mask; m != 0; m &= m - 1 {
		joined |= c.of[bits.TrailingZeros64(m)]
	}
	if mask&c.closed != 0 || bits.OnesCount64(joined) > c.capQubits {
		return false
	}
	for m := joined; m != 0; m &= m - 1 {
		c.of[bits.TrailingZeros64(m)] = joined
	}
	return true
}

// addGates splits gate unit k, whose gates gs start at source gate lo.
func (c *carry) addGates(k int, gs []gates.Gate, lo int) {
	joined := false
	for i := range gs {
		g := &gs[i]
		mask := bitops.ControlMask(g.Controls) | 1<<g.Target
		if !c.join(mask) {
			c.closed |= mask
			c.rest = append(c.rest, lo+i)
			continue
		}
		c.index = append(c.index, lo+i)
		joined = true
	}
	if joined {
		c.end, c.restEnd = k+1, len(c.rest)
	}
}

// absorb joins op unit k to the prefix, or reports that it cannot. A
// diagonal that splits (recognize.Op.Factors) joins factor by factor, each
// factor's support as a gate's qubits would, and all or none of them: the
// rebuild that proves the split runs only once every proposed block has
// joined. Any factor that cannot join means the whole support cannot
// either; a proposal the rebuild refutes joins by its whole support.
func (c *carry) absorb(k int, op *recognize.Op) bool {
	fs := []*recognize.Op{op}
	if blocks := op.FactorSupports(); blocks != nil {
		saved := c.of
		for _, m := range blocks {
			if !c.join(m) {
				c.of = saved
				return false
			}
		}
		if fs = op.Factors(); len(fs) == 1 {
			c.of = saved
		}
	}
	if len(fs) == 1 {
		if mask := supportMask(op); mask == 0 || !c.join(mask) {
			return false
		}
	}
	c.factors = append(c.factors, fs)
	c.end, c.restEnd = k+1, len(c.rest)
	return true
}

// clusters returns the prefix's cluster supports ordered by lowest qubit,
// and how many qubits they cover.
func (c *carry) clusters(n uint) (supports []uint64, covered uint) {
	var seen uint64
	for q := uint(0); q < n; q++ {
		if m := c.of[q]; m != 0 && seen&m == 0 {
			supports = append(supports, m)
			covered += uint(bits.OnesCount64(m))
			seen |= m
		}
	}
	return supports, covered
}

// supportMask is the mask of the qubits op acts on.
func supportMask(op *recognize.Op) uint64 {
	var m uint64
	for _, q := range op.Support() {
		m |= 1 << q
	}
	return m
}

// productPrefix derives the prefix the carry grew over x's units for a
// target with L-qubit shards and fusion width w, with the remainder's
// gates, or nil when it has no gate or fuse's cost model prices the fill
// plus the remainder no cheaper than the span's gate segments plus one
// sweep per absorbed op.
func (x *Executable) productPrefix(c *carry, L uint, w int) (*Prefix, []*gates.Gate) {
	if len(c.index) == 0 {
		return nil, nil
	}
	n := x.NumQubits
	span := x.Units[:c.end]
	rest := c.rest[:c.restEnd]
	restGates := make([]*gates.Gate, 0, len(rest))
	k := 0
	whole, ops := 0.0, 0
	for i := range span {
		u := &span[i]
		if u.Op != nil {
			ops++
			continue
		}
		whole += fuse.Cost(u.Gates, w)
		for ; k < len(rest) && rest[k] < u.Hi; k++ {
			restGates = append(restGates, &u.Gates[rest[k]-u.Lo])
		}
	}
	units := whole - fuse.CostOf(restGates, w)
	supports, covered := c.clusters(n)
	if fuse.FillCost(covered, n) >= units+float64(ops) {
		return nil, nil
	}
	p := &Prefix{End: c.end, Index: c.index, Rest: rest, Units: units,
		factors: c.factors, own: make([]ownLowering, c.end), width: w, n: n, L: L}
	for _, m := range supports {
		var qs []uint
		for b := m; b != 0; b &= b - 1 {
			qs = append(qs, uint(bits.TrailingZeros64(b)))
		}
		p.Clusters = append(p.Clusters, qs)
		p.Vectors = append(p.Vectors, clusterVector(span, p.Index, p.factors, qs, m))
	}
	p.Fill = statevec.NewProduct(n, L, p.Clusters, p.Vectors)
	return p, restGates
}

// clusterVector simulates, from |0...0>, the span's prefix gates (index,
// by source gate number, ascending) and the factors of its ops (factors,
// one list per op unit) that act on cluster qs (support mask), in source
// order, qubit qs[t] as bit t: the gates through the dense controlled
// kernel (ApplyGate's structure dispatch costs more than it saves on a
// vector this small), the factors as ops.
func clusterVector(span []Unit, index []int, factors [][]*recognize.Op, qs []uint, mask uint64) []complex128 {
	var local [64]uint
	for t, q := range qs {
		local[q] = uint(t)
	}
	st := statevec.New(uint(len(qs)))
	st.SetParallelism(1)
	var controls []uint
	k, o := 0, 0
	for i := range span {
		u := &span[i]
		if u.Op != nil {
			for _, f := range factors[o] {
				if supportMask(f)&mask != 0 {
					f.ApplyOn(st, qs)
				}
			}
			o++
			continue
		}
		for ; k < len(index) && index[k] < u.Hi; k++ {
			g := &u.Gates[index[k]-u.Lo]
			if 1<<g.Target&mask == 0 {
				continue
			}
			controls = controls[:0]
			for _, c := range g.Controls {
				controls = append(controls, local[c])
			}
			st.ApplyControlledMatrix2(g.Matrix, local[g.Target], controls)
		}
	}
	return st.Amplitudes()
}
