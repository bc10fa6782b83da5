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
//   - full-register Fourier ops run as the four-step distributed FFT
//     (three all-to-all transposition rounds, Eq. 5's "3"), with the
//     noswap variants' bit reversal realised as a zero-communication
//     placement relabelling;
//   - narrow Fourier fields (width <= L) run as per-shard transforms
//     after at most one placement remap makes the field node-local;
//   - mid-width Fourier fields (wider than a shard, narrower than the
//     register) run the four-step factorisation along the field axis
//     (fieldfft.go): two remap rounds, feasible up to twice the shard
//     width;
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
	SubstrateFourStepFFT = "four-step-fft"
	SubstrateFieldFFT    = "field-four-step-fft"
	SubstrateLocalFFT    = "local-fft"
	SubstratePermutation = "permutation"
	SubstrateDiagonal    = "diagonal"
	SubstrateReflect     = "reflect"
)

// Lowerable reports whether a recognised op can execute on a cluster of
// shape (n total qubits, L local qubits, P nodes) and names the substrate
// it lowers to. Ops it rejects (a Fourier field needing sub-transforms
// wider than a shard, or a register too small for the four-step
// factorisation) must stay on the gate-level scheduled path.
func Lowerable(op *recognize.Op, n, L uint, P int) (string, bool) {
	if q, ok := op.QFT(); ok {
		if q.Width == n {
			// The four-step N1 x N2 factorisation distributes by rows; both
			// halves must hold at least one row/column per node.
			n1 := n / 2
			if uint64(1)<<n1 >= uint64(P) && uint64(1)<<(n-n1) >= uint64(P) {
				return SubstrateFourStepFFT, true
			}
			return "", false
		}
		if q.Width <= L {
			return SubstrateLocalFFT, true
		}
		if q.Width-q.Width/2 <= L {
			// Mid-width: four-step along the field axis; both sub-fields
			// must fit a shard.
			return SubstrateFieldFFT, true
		}
		return "", false
	}
	if op.ReflectUniform() {
		return SubstrateReflect, true
	}
	if _, _, ok := op.DiagTable(); ok {
		return SubstrateDiagonal, true
	}
	if _, _, ok := op.PhaseFlip(); ok {
		return SubstrateDiagonal, true
	}
	if _, ok := op.Permutation(); ok {
		return SubstratePermutation, true
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
	case SubstrateFourStepFFT:
		q, _ := op.QFT()
		sign := +1
		if q.Inverse {
			sign = -1
		}
		// The noswap variants compose the field bit reversal S after the
		// forward transform (S·F) or before the inverse (F⁻¹·S). Relabelling
		// the placement applies S without moving an amplitude.
		if q.Inverse && q.NoSwap {
			c.reverseFieldPlacement(q.Pos, q.Width)
		}
		if err := c.distributedFFT(sign, true); err != nil {
			return "", err
		}
		if !q.Inverse && q.NoSwap {
			c.reverseFieldPlacement(q.Pos, q.Width)
		}
	case SubstrateFieldFFT:
		q, _ := op.QFT()
		if q.Inverse && q.NoSwap {
			c.reverseFieldPlacement(q.Pos, q.Width)
		}
		if err := c.distributedFFTField(q.Pos, q.Width, q.Inverse); err != nil {
			return "", err
		}
		if !q.Inverse && q.NoSwap {
			c.reverseFieldPlacement(q.Pos, q.Width)
		}
	case SubstrateLocalFFT:
		q, _ := op.QFT()
		if q.Inverse && q.NoSwap {
			c.reverseFieldPlacement(q.Pos, q.Width)
		}
		// One remap makes the field bits shard-local at physical positions
		// [0, width); every node then transforms its own fibres.
		c.remapFieldLocal(q.Pos, q.Width)
		c.eachNode(func(p int) {
			q.Plan.TransformField(c.shard(p), 0, q.Inverse, 1)
		})
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

// remapFieldLocal installs a placement with logical qubit pos+j at
// physical position j for j < w (one all-to-all remap round, or free when
// already in place), so a width-w field transform can run shard-locally
// with stride-1 fibres. Displaced qubits take the slots the field bits
// vacate.
func (c *Cluster) remapFieldLocal(pos, w uint) {
	if w > c.L {
		panic(fmt.Sprintf("cluster: field of %d qubits cannot be made local on %d-qubit shards", w, c.L))
	}
	n := c.NumQubits()
	newPos := append([]uint(nil), c.pos...)
	// Owner of each physical slot under the evolving assignment.
	owner := make([]uint, n)
	for q := uint(0); q < n; q++ {
		owner[newPos[q]] = q
	}
	for j := uint(0); j < w; j++ {
		q := pos + j
		if newPos[q] == j {
			continue
		}
		displaced := owner[j]
		freed := newPos[q]
		newPos[displaced], owner[freed] = freed, displaced
		newPos[q], owner[j] = j, q
	}
	c.Remap(newPos)
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
