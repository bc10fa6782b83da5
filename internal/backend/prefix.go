package backend

import (
	"math/bits"
	"sync"

	"repro/internal/bitops"
	"repro/internal/cluster"
	"repro/internal/fuse"
	"repro/internal/gates"
	"repro/internal/statevec"
)

// The product prefix. Every run starts from |0...0>, and until gates join
// qubits past a small cluster the state is a product of a few 2^k-vectors.
// The first gate unit's commuting product prefix is the gates that act
// only on qubits no earlier remainder gate has touched, grouped by
// interaction into clusters; it commutes past every remainder gate before
// it (their supports are disjoint), so the unit is the prefix followed by
// the remainder, each in source order. The lowering simulates each
// cluster's vector once, and a fresh register (cluster.Cluster.Fresh)
// starts as their product, written in one fill — the prefix's gates never
// sweep the state.

// maxClusterQubits bounds a prefix cluster whatever the register width: a
// cluster's vector is simulated at lowering, 16·2^k bytes of it.
const maxClusterQubits = 16

// Prefix is unit 0's commuting product prefix. The unit's own Fused and
// Sched then hold the remainder: the unit's other gates, in source order.
type Prefix struct {
	// Index lists the prefix gates as offsets into Unit.Gates, ascending.
	Index []int
	// Clusters are the prefix's qubit clusters, each in ascending order,
	// ordered by their lowest qubit; Vectors[i] is cluster i's state after
	// its prefix gates, bit t of the index standing for Clusters[i][t].
	// Qubits in no cluster stay |0>.
	Clusters [][]uint
	Vectors  [][]complex128
	// Fill is the clusters' product laid out for the target's shards: what
	// a fresh register runs. Units is what the prefix takes off the
	// segment in fuse's sweep units: the whole segment's cost less the
	// remainder's.
	Fill  *statevec.Product
	Units float64

	// What Sched plans from: the unit's gates, the remainder's plan, the
	// fusion width and the target's shape.
	gates []gates.Gate
	rest  *fuse.Plan
	width int
	n, L  uint
	once  sync.Once
	sched *cluster.Schedule
}

// Sched returns what a register that is not fresh runs for the whole
// unit: the prefix gates' fusion plan, then the remainder's, under one
// schedule, so remaps batch across the seam. It is planned on first use
// and shared after: a fresh run never needs it, so compiling and decoding
// do not pay for it.
func (p *Prefix) Sched() *cluster.Schedule {
	p.once.Do(func() {
		plan := fuse.NewOf(p.gates, p.Index, p.width)
		s, err := cluster.BuildScheduleOf([]*fuse.Plan{plan, p.rest}, p.n, p.L, true)
		if err != nil {
			// The remainder's schedule was built at the same width and shape.
			panic("backend: product prefix schedule: " + err.Error())
		}
		p.sched = s
	})
	return p.sched
}

// prefixCap is the widest cluster the prefix forms on an n-qubit
// register: ⌊n/2⌋, at most maxClusterQubits.
func prefixCap(n uint) int { return int(min(n/2, maxClusterQubits)) }

// prefixSplit is the commuting product prefix of a gate segment: its
// gates and the others, as ascending offsets into the segment, and the
// supports of its clusters, ordered by lowest qubit, which cover
// `covered` qubits.
type prefixSplit struct {
	index, rest []int
	clusters    []uint64
	covered     uint
}

// splitPrefix finds the commuting product prefix of gs on an n-qubit
// register. A gate joins the prefix when none of its qubits was touched
// by an earlier remainder gate and the clusters it joins together stay
// within prefixCap(n) qubits; otherwise it is a remainder gate and its
// qubits are closed to the prefix from then on.
func splitPrefix(gs []gates.Gate, n uint) prefixSplit {
	capQubits := prefixCap(n)
	var sp prefixSplit
	var closed uint64
	var of [64]uint64 // of[q]: the support of qubit q's cluster, 0 if none
	for i := range gs {
		g := &gs[i]
		mask := bitops.ControlMask(g.Controls) | 1<<g.Target
		joined := mask
		for m := mask; m != 0; m &= m - 1 {
			joined |= of[bits.TrailingZeros64(m)]
		}
		if mask&closed != 0 || bits.OnesCount64(joined) > capQubits {
			closed |= mask
			sp.rest = append(sp.rest, i)
			continue
		}
		for m := joined; m != 0; m &= m - 1 {
			of[bits.TrailingZeros64(m)] = joined
		}
		sp.index = append(sp.index, i)
	}
	var seen uint64
	for q := uint(0); q < n; q++ {
		if c := of[q]; c != 0 && seen&c == 0 {
			sp.clusters = append(sp.clusters, c)
			sp.covered += uint(bits.OnesCount64(c))
			seen |= c
		}
	}
	return sp
}

// productPrefix derives unit 0's prefix for a target with L-qubit shards
// and fusion width w, or nil when there is none or fuse's cost model
// prices the fill plus the remainder no cheaper than the whole segment.
// Beside it, it returns the remainder's offsets into gs; the remainder's
// plan is the caller's, which hands it to the prefix (Prefix.rest).
func productPrefix(gs []gates.Gate, n, L uint, w int) (*Prefix, []int) {
	sp := splitPrefix(gs, n)
	if len(sp.index) == 0 {
		return nil, nil
	}
	units := fuse.Cost(gs, w) - fuse.CostOf(gs, sp.rest, w)
	if fuse.FillCost(sp.covered, n) >= units {
		return nil, nil
	}
	p := &Prefix{Index: sp.index, Units: units, gates: gs, width: w, n: n, L: L}
	for _, m := range sp.clusters {
		var qs []uint
		for b := m; b != 0; b &= b - 1 {
			qs = append(qs, uint(bits.TrailingZeros64(b)))
		}
		p.Clusters = append(p.Clusters, qs)
		p.Vectors = append(p.Vectors, clusterVector(gs, sp.index, qs, m))
	}
	p.Fill = statevec.NewProduct(n, L, p.Clusters, p.Vectors)
	return p, sp.rest
}

// clusterVector simulates the prefix gates gs[i], i in index, that act on
// cluster qs (support mask) from |0...0>, qubit qs[t] as bit t. A
// one-qubit cluster's gates are uncontrolled 2x2s (a control would have
// joined it to another), so its vector is their product applied to |0>.
func clusterVector(gs []gates.Gate, index []int, qs []uint, mask uint64) []complex128 {
	if len(qs) == 1 {
		v := []complex128{1, 0}
		for _, i := range index {
			if m := gs[i].Matrix; gs[i].Target == qs[0] {
				v[0], v[1] = m[0]*v[0]+m[1]*v[1], m[2]*v[0]+m[3]*v[1]
			}
		}
		return v
	}
	var local [64]uint
	for t, q := range qs {
		local[q] = uint(t)
	}
	// The dense controlled kernel on a vector this small: ApplyGate's
	// structure dispatch costs more than it saves here.
	st := statevec.New(uint(len(qs)))
	st.SetParallelism(1)
	var controls []uint
	for _, i := range index {
		g := &gs[i]
		if 1<<g.Target&mask == 0 {
			continue
		}
		controls = controls[:0]
		for _, c := range g.Controls {
			controls = append(controls, local[c])
		}
		st.ApplyControlledMatrix2(g.Matrix, local[g.Target], controls)
	}
	return st.Amplitudes()
}
