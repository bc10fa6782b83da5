package cluster

import (
	"fmt"

	"repro/internal/recognize"
)

// This file lowers recognised emulation shortcuts (internal/recognize)
// onto the distributed substrate — the ROADMAP's "distributed emulation
// dispatch". Each op family maps to the cheapest collective the cluster
// offers:
//
//   - an op whose support lies in node-local positions runs Op.Apply on
//     every shard under the canonical placement (substrate statevec, the
//     single-node kernels): on one node every op but the diagonal ones,
//     on several nodes the arithmetic ops that leave the node bits alone;
//   - Fourier fields of any width run through one lowering
//     (fieldfft.go): a field that fits a shard (width <= L; on one node,
//     any field) as per-shard transforms after at most one remap makes it
//     node-local, a wider one — the full register included — as the
//     four-step factorisation that moves only the field's node bits, two
//     all-to-all rounds, and leaves its output order in the placement, so
//     Eq. 5's third all-to-all is paid by the next Canonicalize. The
//     noswap variants' bit reversal is a zero-communication placement
//     relabelling on top;
//   - arithmetic ops (add, sub, addc, mul, div) run as one cluster-wide
//     basis permutation — a single all-to-all, the paper's Section 4.2;
//   - diagonal ops multiply each shard in place, communication-free under
//     any placement: diagonal runs through their table (applyDiagTable,
//     the lowering fused diagonal blocks use), phase flips by negating
//     the matching amplitudes;
//   - the Grover diffusion needs one scalar allreduce (P partial sums).

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
// Diagonal runs and phase flips keep their placement-free lowering at
// every node count. Any other op on one node, and an arithmetic op whose
// support lies below L on several, runs on the shards as it would on one
// state; both canonicalise the placement first, which the one node never
// leaves and the permutation lowering needs anyway, so no op pays a remap
// it did not pay before.
func Lowerable(op *recognize.Op, n, L uint, P int) (string, bool) {
	if _, _, ok := op.DiagTable(); ok {
		return SubstrateDiagonal, true
	}
	if _, _, ok := op.PhaseFlip(); ok {
		return SubstrateDiagonal, true
	}
	if P == 1 {
		return SubstrateStatevec, true
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
		return "", fmt.Errorf("cluster: %v has no distributed lowering (field wider than a shard?)", op)
	}
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
			return "", err
		}
		if !q.Inverse && q.NoSwap {
			c.reverseFieldPlacement(q.Pos, q.Width)
		}
	case SubstrateReflect:
		c.ReflectUniform()
	case SubstrateDiagonal:
		if d, qubits, ok := op.DiagTable(); ok {
			c.applyDiagTable(d, qubits)
		} else {
			qubits, value, _ := op.PhaseFlip()
			c.applyPhaseFlip(qubits, value)
		}
	case SubstratePermutation:
		f, _ := op.Permutation()
		c.ApplyPermutation(f)
	}
	return sub, nil
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

// ReflectUniform applies the Householder reflection I - 2|s><s| about the
// uniform state to the whole register: a' = a - 2(Σa)/N. The global sum is
// one scalar allreduce (P partial sums); the update is shard-local. Both
// passes are placement-independent.
func (c *Cluster) ReflectUniform() {
	sums := make([]complex128, c.P)
	c.eachNode(func(p int) {
		var s complex128
		for _, a := range c.shard(p) {
			s += a
		}
		sums[p] = s
	})
	var total complex128
	for _, s := range sums {
		total += s
	}
	mu := total * complex(2/float64(uint64(1)<<c.NumQubits()), 0)
	c.eachNode(func(p int) {
		shard := c.shard(p)
		for i := range shard {
			shard[i] -= mu
		}
	})
	// Allreduce accounting: every node shares one 16-byte partial sum.
	p64 := uint64(c.P)
	c.Stats.BytesSent.Add(16 * p64 * (p64 - 1))
	c.Stats.Messages.Add(p64 * (p64 - 1))
	c.Stats.Rounds.Add(1)
}
