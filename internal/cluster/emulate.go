package cluster

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/recognize"
)

// This file lowers recognised emulation shortcuts (internal/recognize)
// onto the distributed substrate — the ROADMAP's "distributed emulation
// dispatch". Each op family maps to the cheapest collective the cluster
// offers, and one node is the same machine with P = 1:
//
//   - an arithmetic op whose support lies in node-local positions runs
//     Op.Apply on every shard under the canonical placement (substrate
//     statevec, the single-node kernels): on one node every arithmetic
//     op, on several the ones that leave the node bits alone;
//   - Fourier fields of any width run through one lowering
//     (fieldfft.go), on one node as on several. A field that fits a shard
//     (width <= L; on one node, any field) transforms per shard in the
//     order its placement gives: ascending at physical [0, w) it runs the
//     DIF network and the placement records the field reversed, recorded
//     reversed there it runs the DIT network and the placement is
//     restored — a transform pair pays two networks and no reordering
//     pass. A wider one — the full register on several nodes — is the
//     four-step factorisation that moves only the field's node bits, two
//     all-to-all rounds, and leaves its output order in the placement, so
//     Eq. 5's third all-to-all is paid by the next Canonicalize. The
//     noswap variants' bit reversal is a zero-communication placement
//     relabelling on top;
//   - arithmetic ops that touch node bits (add, sub, addc, mul, div) run
//     as one cluster-wide basis permutation — a single all-to-all, the
//     paper's Section 4.2;
//   - diagonal ops multiply each shard in place, communication-free under
//     any placement: diagonal runs through their table (applyDiagTable,
//     the lowering fused diagonal blocks use), phase flips by negating
//     the matching amplitudes;
//   - the Grover diffusion needs one scalar allreduce (P partial sums),
//     under any placement; one node reduces with no round at all.

// Substrate names reported for each lowering, surfaced through the
// backend Result so callers can see how a region actually executed.
const (
	SubstrateStatevec    = "statevec"
	SubstrateFourStepFFT = "four-step-fft"
	SubstrateFieldFFT    = "field-four-step-fft"
	SubstrateLocalFFT    = "local-fft"
	SubstratePermutation = "permutation"
	SubstrateDiagonal    = "diagonal"
	SubstrateReflect     = "reflect"
)

// Lowerable reports whether a recognised op can execute on a cluster of
// shape (n total qubits, L local qubits, P nodes) and names the substrate
// it lowers to. Ops it rejects (a Fourier field with more bits on node
// positions than a shard holds) must stay on the gate-level scheduled
// path.
//
// One node is the cluster at P = 1 with L = n: an arithmetic op's support
// always lies below L (statevec), a Fourier field always fits the shard
// (local-fft), and diagonals and the reflection keep their placement-free
// lowerings. Only the statevec substrate canonicalises the placement
// first, which the permutation lowering needs anyway.
func Lowerable(op *recognize.Op, n, L uint, P int) (string, bool) {
	if _, _, ok := op.DiagTable(); ok {
		return SubstrateDiagonal, true
	}
	if _, _, ok := op.PhaseFlip(); ok {
		return SubstrateDiagonal, true
	}
	if _, ok := op.Permutation(); ok {
		if s := op.Support(); s[len(s)-1] < L {
			return SubstrateStatevec, true
		}
		return SubstratePermutation, true
	}
	if q, ok := op.QFT(); ok {
		// A field that fits one shard transforms shard-locally.
		if q.Width <= L {
			return SubstrateLocalFFT, true
		}
		// A wider one moves its node bits, pos+width-L of them, into a
		// shard: they must fit there.
		if q.Pos+q.Width-L > L {
			return "", false
		}
		if q.Width == n {
			return SubstrateFourStepFFT, true
		}
		return SubstrateFieldFFT, true
	}
	if op.ReflectUniform() {
		return SubstrateReflect, true
	}
	return "", false
}

// ApplyOp executes one recognised shortcut on the distributed register and
// returns the substrate it ran on. It fails (without touching the state)
// for ops Lowerable rejects; schedulers are expected to have filtered
// those back to gate level.
func (c *Cluster) ApplyOp(op *recognize.Op) (string, error) {
	sub, ok := Lowerable(op, c.NumQubits(), c.L, c.P)
	if !ok {
		return "", noLowering(op)
	}
	_, _, err := c.apply(op, sub, nil, Sum{})
	return sub, err
}

// noLowering is the error of an op Lowerable rejects.
func noLowering(op *recognize.Op) error {
	return fmt.Errorf("cluster: %v has no distributed lowering (field wider than a shard?)", op)
}

// Sum is the register's amplitude sum as a caller carries it from op to
// op: Value is the sum when Known is set. A fresh run's product fill knows
// it (statevec.Product.Sum), and the ops ApplyOpSum names keep it; it
// lives with the caller, not on the register, so nothing else has to
// clear it.
type Sum struct {
	Value complex128
	Known bool
}

// ApplyOpSum is ApplyOp on a register whose amplitude sum is s, with next
// the op the caller runs right after it (nil when a gate or nothing
// follows). It returns the sum after the op, and whether the op ran in one
// pass on s. A phase flip takes off twice the sum of what it negates. A
// reflection with s known skips its sum pass and runs its update pass
// alone; it adds up the sum it leaves as it writes only when next is an op
// that carries the sum on (a phase flip or a reflection). Every other op
// leaves the sum unknown.
func (c *Cluster) ApplyOpSum(op, next *recognize.Op, s Sum) (after Sum, onePass bool, err error) {
	sub, ok := Lowerable(op, c.NumQubits(), c.L, c.P)
	if !ok {
		return Sum{}, false, noLowering(op)
	}
	return c.apply(op, sub, next, s)
}

// carriesSum reports whether op turns a known amplitude sum into the sum
// it leaves: a phase flip or a reflection.
func carriesSum(op *recognize.Op) bool {
	if op == nil {
		return false
	}
	_, _, flip := op.PhaseFlip()
	return flip || op.ReflectUniform()
}

// apply runs op on substrate sub, as ApplyOpSum describes.
func (c *Cluster) apply(op *recognize.Op, sub string, next *recognize.Op, s Sum) (Sum, bool, error) {
	c.fresh = false
	switch sub {
	case SubstrateStatevec:
		c.Canonicalize()
		c.eachNode(func(p int) { op.Apply(c.nodes[p]) })
	case SubstrateFourStepFFT, SubstrateFieldFFT, SubstrateLocalFFT:
		q, _ := op.QFT()
		// The noswap variants compose the field bit reversal S after the
		// forward transform (S·F) or before the inverse (F⁻¹·S). Relabelling
		// the placement applies S without moving an amplitude.
		if q.Inverse && q.NoSwap {
			c.reverseFieldPlacement(q.Pos, q.Width)
		}
		if err := c.distributedFFTField(q.Pos, q.Width, q.Inverse); err != nil {
			return Sum{}, false, err
		}
		if !q.Inverse && q.NoSwap {
			c.reverseFieldPlacement(q.Pos, q.Width)
		}
	case SubstrateReflect:
		return c.reflect(s, carriesSum(next)), s.Known, nil
	case SubstrateDiagonal:
		if d, qubits, ok := op.DiagTable(); ok {
			c.applyDiagTable(d, qubits)
			break
		}
		qubits, value, _ := op.PhaseFlip()
		flipped := c.applyPhaseFlip(qubits, value)
		return Sum{s.Value - 2*flipped, s.Known}, false, nil
	case SubstratePermutation:
		f, _ := op.Permutation()
		c.ApplyPermutation(f)
	}
	return Sum{}, false, nil
}

// ApplyOpPair runs two adjacent ops as one pass when they compose: an
// arithmetic op with a field-add kernel (recognize.Op.FieldAdd) and a
// diagonal table, in either order, both shard-local — the arithmetic op's
// support and the table's qubits below L. Each shard then runs
// statevec.State.ApplyFieldAddDiag under the canonical placement, which
// is ApplyOp(first) and ApplyOp(second) bit for bit. It reports whether it
// ran; a pair that does not compose is left for the caller to run apart.
// The pair leaves the amplitude sum unknown.
func (c *Cluster) ApplyOpPair(first, second *recognize.Op) bool {
	arith, diag, diagFirst := first, second, false
	if _, _, ok := first.DiagTable(); ok {
		arith, diag, diagFirst = second, first, true
	}
	add, ok := arith.FieldAdd()
	d, qubits, isDiag := diag.DiagTable()
	if !ok || !isDiag || qubits[len(qubits)-1] >= c.L {
		return false
	}
	if sub, _ := Lowerable(arith, c.NumQubits(), c.L, c.P); sub != SubstrateStatevec {
		return false
	}
	c.fresh = false
	c.Canonicalize()
	c.eachNode(func(p int) { c.nodes[p].ApplyFieldAddDiag(add, d, qubits, diagFirst) })
	return true
}

// reverseFieldPlacement applies the bit-reversal permutation of the
// logical qubit field [pos, pos+w) by relabelling: swapping the physical
// positions of logical qubits q and q' exchanges their roles, which IS the
// swap gate on (q, q') — so the reversal network costs no communication
// and no amplitude motion at all. The placement is left drifted; engines
// that need the canonical layout re-canonicalise (one remap round) when
// they next touch the state.
func (c *Cluster) reverseFieldPlacement(pos, w uint) {
	for j := uint(0); j < w/2; j++ {
		a, b := pos+j, pos+w-1-j
		c.pos[a], c.pos[b] = c.pos[b], c.pos[a]
	}
}

// reflect applies the Householder reflection I - 2|s><s| about the
// uniform state to the whole register, a' = a - 2(Σa)/N, on a register
// whose amplitude sum is s. Unknown, the sum is one scalar allreduce (P
// partial sums); known, that pass is skipped and the reflection is its
// update pass alone, shard-local. With keep set the update adds up the sum
// it leaves as it writes, and reflect returns it; otherwise it returns the
// sum unknown. Both passes are placement-independent, and each shard's
// share is split into chunks over the node's workers, so one node reflects
// at its whole worker count. One node shares its sum with nobody: no
// round. Several pay the round either way: a carried sum's last change (a
// phase flip's) lies on the nodes that made it and is shared here.
func (c *Cluster) reflect(s Sum, keep bool) Sum {
	c.fresh = false
	chunks := c.reflectChunks()
	part := func(k int) []complex128 {
		size, i := c.LocalSize(), uint64(k%chunks)
		return c.shard(k / chunks)[i*size/uint64(chunks) : (i+1)*size/uint64(chunks)]
	}
	sums := make([]complex128, c.P*chunks)
	total := s.Value
	if !s.Known {
		par.For(len(sums), func(k int) { sums[k] = sumAmps(part(k)) })
		total = 0
		for _, v := range sums {
			total += v
		}
	}
	mu := total * complex(2/float64(uint64(1)<<c.NumQubits()), 0)
	after := Sum{Known: keep}
	if keep {
		par.For(len(sums), func(k int) { sums[k] = subtractSumAmps(part(k), mu) })
		for _, v := range sums {
			after.Value += v
		}
	} else {
		par.For(len(sums), func(k int) { subtractAmps(part(k), mu) })
	}
	if c.P > 1 {
		// Allreduce accounting: every node shares one 16-byte partial sum.
		p64 := uint64(c.P)
		c.Stats.BytesSent.Add(16 * p64 * (p64 - 1))
		c.Stats.Messages.Add(p64 * (p64 - 1))
		c.Stats.Rounds.Add(1)
	}
	return after
}

// sumAmps returns the sum of amps.
//
//qemu:hotpath
func sumAmps(amps []complex128) complex128 {
	var s complex128
	for _, a := range amps {
		s += a
	}
	return s
}

// subtractAmps subtracts mu from every amplitude of amps.
//
//qemu:hotpath
func subtractAmps(amps []complex128, mu complex128) {
	for i := range amps {
		amps[i] -= mu
	}
}

// subtractSumAmps is subtractAmps, returning the sum of what it wrote.
//
//qemu:hotpath
func subtractSumAmps(amps []complex128, mu complex128) complex128 {
	var s complex128
	for i := range amps {
		amps[i] -= mu
		s += amps[i]
	}
	return s
}

// reflectChunks is how many chunks reflect splits each shard into:
// the node's worker count, kept to at least minChunk amplitudes each.
func (c *Cluster) reflectChunks() int {
	return int(min(uint64(c.nodes[0].Workers()), max(c.LocalSize()/minChunk, 1)))
}
