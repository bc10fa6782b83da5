package cluster

import (
	"fmt"

	"repro/internal/bitops"
	"repro/internal/circuit"
	"repro/internal/fuse"
	"repro/internal/gates"
)

// Op is one unit of a distributed schedule: either a fused block from a
// fuse.Plan (Block non-nil) or a single gate of an unfused replay run.
type Op struct {
	Gate  gates.Gate
	Block *fuse.Block
}

// Step is one phase of a schedule: an optional placement remap (one
// all-to-all round) followed by ops executed under the placement then in
// force. Almost all ops run communication-free; the exception is the
// occasional unbatchable remote-target gate the scheduler deliberately
// left on the pairwise-exchange path (see Schedule.ExchangeGates).
type Step struct {
	// Remap, when non-nil, is the logical→physical placement to install
	// before running Ops.
	Remap []uint
	// Ops run under the step's placement.
	Ops []Op
}

// Schedule is a communication plan for one circuit on one cluster shape:
// the gate stream partitioned into remap-delimited steps. It is immutable
// after construction and reusable across runs and clusters of the same
// (n, L) shape.
type Schedule struct {
	// NumQubits and LocalQubits pin the cluster shape the schedule was
	// built for.
	NumQubits   uint
	LocalQubits uint
	// DiagonalOptimization records whether diagonal gates were scheduled
	// as communication-free (they are placement-independent then).
	DiagonalOptimization bool
	// Steps is the schedule, executed left to right.
	Steps []Step
	// Remaps counts the all-to-all placement remap rounds (steps with a
	// non-nil Remap).
	Remaps int
	// ExchangeGates counts gates the scheduler chose to run through the
	// per-gate pairwise exchange after all: when a remap would unblock
	// only a single remote-target gate, displacing locally-needed qubits
	// for it costs more than the one exchange the naive engine would pay.
	ExchangeGates int
	// Rounds is the schedule's total communication round count, Remaps +
	// ExchangeGates — the number to compare against the naive engine's
	// one round per remote-qubit gate.
	Rounds int
	// Gates counts the original gates across all ops.
	Gates int
	// countedGates is what executing the ops attributes to Stats.Gates
	// (merged replay gates count once, fused blocks their originals);
	// RunSchedule adds the shortfall so both engines report original
	// gate counts.
	countedGates int
}

// requiredMask returns the logical qubits an op needs node-local as a
// bitmask. Diagonal work (gates and fused diagonal blocks) needs none when
// the diagonal optimisation is on: every node owns all its amplitudes'
// diagonal factors whatever the placement. Remote controls are free in
// every case — they only select participating nodes — so a gate
// constrains the placement through its target alone, while a dense fused
// block needs its whole support local.
func requiredMask(op Op, diagOpt bool) uint64 {
	if b := op.Block; b != nil {
		if b.Diag != nil && diagOpt {
			return 0
		}
		return bitops.ControlMask(b.Qubits)
	}
	if diagOpt && op.Gate.IsDiagonalOnState() {
		return 0
	}
	return uint64(1) << op.Gate.Target
}

// flattenPlan turns a fusion plan into the scheduler's op stream: fused
// blocks stay whole (one op), unfused runs contribute their replay gates
// (same-target runs already merged) one op each, so the scheduler batches
// at gate granularity where fusion found no structure.
func flattenPlan(plan *fuse.Plan) ([]Op, int) {
	var ops []Op
	gateCount := 0
	for i := range plan.Blocks {
		b := &plan.Blocks[i]
		gateCount += len(b.Gates)
		if b.Fused() {
			ops = append(ops, Op{Block: b})
			continue
		}
		for _, g := range b.Replay() {
			ops = append(ops, Op{Gate: g})
		}
	}
	return ops, gateCount
}

// BuildSchedule walks a fusion plan and batches remote-qubit work into the
// minimum remap rounds a greedy forward scan finds: whenever the stream
// blocks on an op whose required qubits are not all node-local, the
// scheduler plans ONE all-to-all remap whose incoming local set absorbs
// the required qubits of as many upcoming ops as fit in the L local
// positions, then continues until the stream blocks again. Spare local
// capacity is filled Belady-style with the qubits whose next required use
// comes soonest, which minimises the data each remap moves. A remap that
// would unblock only a single remote-target gate is not worth displacing
// the placement for — that gate runs through the naive pairwise exchange
// instead — so every remap in a schedule amortises over at least two
// gates the baseline would have paid a round each for.
//
// The schedule assumes (and RunSchedule restores) the identity placement
// at entry. diagOpt must match the cluster's DiagonalOptimization setting:
// with it off, diagonal gates constrain placement like any other gate.
//
// BuildSchedule fails if any single op needs more than L local qubits —
// callers clamp their fusion width to the cluster's local capacity.
func BuildSchedule(plan *fuse.Plan, n, L uint, diagOpt bool) (*Schedule, error) {
	ops, gateCount := flattenPlan(plan)
	masks := make([]uint64, len(ops))
	for i, op := range ops {
		m := requiredMask(op, diagOpt)
		if w := bitops.PopCount(m); uint(w) > L {
			return nil, fmt.Errorf("cluster: op needs %d local qubits, nodes hold %d (lower the fusion width or the node count)", w, L)
		}
		masks[i] = m
	}

	s := &Schedule{NumQubits: n, LocalQubits: L, DiagonalOptimization: diagOpt, Gates: gateCount}
	for _, op := range ops {
		if op.Block != nil {
			s.countedGates += len(op.Block.Gates)
		} else {
			s.countedGates++
		}
	}
	pos := make([]uint, n)
	for q := range pos {
		pos[q] = uint(q)
	}
	satisfied := func(mask uint64) bool { return placementSatisfies(pos, mask, L) }

	i := 0
	for i < len(ops) {
		var step Step
		if !satisfied(masks[i]) {
			remap := planRemap(pos, masks, i, n, L)
			if ops[i].Block != nil || remapBenefit(pos, remap, masks[i:], L) >= 2 {
				step.Remap = remap
				copy(pos, remap)
				s.Remaps++
			} else {
				// One remote-target gate with nothing batched behind it:
				// a placement change buys nothing over the naive pairwise
				// exchange and may displace qubits still needed — run the
				// gate through the exchange path where it stands.
				step.Ops = append(step.Ops, ops[i])
				s.ExchangeGates++
				i++
			}
		}
		for i < len(ops) && satisfied(masks[i]) {
			step.Ops = append(step.Ops, ops[i])
			i++
		}
		s.Steps = append(s.Steps, step)
	}
	s.Rounds = s.Remaps + s.ExchangeGates
	return s, nil
}

// remapBenefit counts how many exchange rounds the remap to newPos saves:
// the ops from the block point onward that run locally under newPos but
// would each have paid a pairwise exchange under pos, counted until the
// first op newPos does not satisfy (execution blocks there again, so
// later ops belong to the next decision). A remap costs one round; it
// pays when it unblocks at least two.
func remapBenefit(pos, newPos []uint, masks []uint64, L uint) int {
	benefit := 0
	for _, m := range masks {
		if !placementSatisfies(newPos, m, L) {
			break
		}
		if !placementSatisfies(pos, m, L) {
			benefit++
		}
	}
	return benefit
}

// placementSatisfies reports whether every qubit in mask sits in a
// node-local position (< L) under the placement — the one predicate the
// scheduler's correctness hinges on, shared by the build loop and the
// benefit estimator.
func placementSatisfies(placement []uint, mask uint64, L uint) bool {
	for mask != 0 {
		q := uint(bitops.Log2(mask & -mask))
		if placement[q] >= L {
			return false
		}
		mask &= mask - 1
	}
	return true
}

// planRemap chooses the placement for the remap unblocking ops[i]: the
// incoming local set starts with ops[i]'s required qubits, absorbs the
// required sets of subsequent ops in stream order while they fit in L
// positions (stopping at the first op that cannot join — ops run in
// order, so qubits needed beyond that point belong to the next remap),
// and fills any spare capacity with the qubits whose next required use
// comes soonest. Qubits keep their current physical positions wherever
// possible, so amplitudes only move for bits that actually change role.
func planRemap(pos []uint, masks []uint64, i int, n, L uint) []uint {
	req := masks[i]
	j := i + 1
	for j < len(masks) {
		m := masks[j]
		if m != 0 {
			u := req | m
			if uint(bitops.PopCount(u)) > L {
				break
			}
			req = u
		}
		j++
	}
	// Belady fill: spare slots go to qubits used soonest after the scan
	// horizon; qubits never required again stay put if already local.
	if uint(bitops.PopCount(req)) < L {
		var fillOrder []uint
		seen := req
		for k := j; k < len(masks) && uint(bitops.PopCount(seen)) < n; k++ {
			m := masks[k] &^ seen
			for m != 0 {
				q := uint(bitops.Log2(m & -m))
				fillOrder = append(fillOrder, q)
				m &= m - 1
			}
			seen |= masks[k]
		}
		// Then currently-local qubits (cheapest to keep), then the rest.
		for p := uint(0); p < n; p++ {
			for q := uint(0); q < n; q++ {
				if pos[q] == p && seen&(1<<q) == 0 {
					fillOrder = append(fillOrder, q)
					seen |= 1 << q
				}
			}
		}
		for _, q := range fillOrder {
			if uint(bitops.PopCount(req)) == L {
				break
			}
			req |= 1 << q
		}
	}

	// Assign positions: members of the new local set that are already
	// local keep their slots; incoming qubits take the slots freed by
	// displaced ones, which move to the incomers' old node-bit positions.
	newPos := make([]uint, n)
	copy(newPos, pos)
	var freedLocal, freedGlobal []uint
	var incoming, displaced []uint
	for q := uint(0); q < n; q++ {
		inSet := req&(1<<q) != 0
		isLocal := pos[q] < L
		switch {
		case inSet && !isLocal:
			incoming = append(incoming, q)
			freedGlobal = append(freedGlobal, pos[q])
		case !inSet && isLocal:
			displaced = append(displaced, q)
			freedLocal = append(freedLocal, pos[q])
		}
	}
	for k, q := range incoming {
		newPos[q] = freedLocal[k]
	}
	for k, q := range displaced {
		newPos[q] = freedGlobal[k]
	}
	return newPos
}

// RunSchedule executes a schedule built for this cluster's shape: one
// remap round per step that has one, then that step's ops with no
// communication at all. The placement is canonicalised first, since
// schedules are planned from the identity layout.
func (c *Cluster) RunSchedule(s *Schedule) {
	if s.NumQubits != c.NumQubits() || s.LocalQubits != c.L {
		panic(fmt.Sprintf("cluster: schedule built for n=%d L=%d, cluster has n=%d L=%d",
			s.NumQubits, s.LocalQubits, c.NumQubits(), c.L))
	}
	if s.DiagonalOptimization != c.DiagonalOptimization {
		panic("cluster: schedule and cluster disagree on DiagonalOptimization")
	}
	c.Canonicalize()
	for i := range s.Steps {
		step := &s.Steps[i]
		if step.Remap != nil {
			c.Remap(step.Remap)
		}
		for _, op := range step.Ops {
			if op.Block != nil {
				c.applyBlock(op.Block)
			} else {
				c.ApplyGate(op.Gate)
			}
		}
	}
	// True Stats.Gates up to the original gate count: replay gates with
	// same-target runs merged were attributed once per merge.
	if d := s.Gates - s.countedGates; d > 0 {
		c.Stats.Gates.Add(uint64(d))
	}
}

// RunPlan builds and executes the schedule for a fusion plan.
func (c *Cluster) RunPlan(p *fuse.Plan) error {
	s, err := BuildSchedule(p, c.NumQubits(), c.L, c.DiagonalOptimization)
	if err != nil {
		return err
	}
	c.RunSchedule(s)
	return nil
}

// ClampFuseWidth bounds a fusion width to a cluster's per-node shard
// capacity: a dense 2^w block can only execute when all w qubits fit in
// the L local positions. Width < 1 degenerates to same-target fusion
// (width 1). Every caller planning fusion for BuildSchedule must clamp with
// this.
func ClampFuseWidth(w int, localQubits uint) int {
	if w > int(localQubits) {
		w = int(localQubits)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunScheduled plans fusion at the given width (clamped to the node-local
// capacity; width < 2 degenerates to same-target fusion) and executes the
// circuit through the communication-avoiding engine.
func (c *Cluster) RunScheduled(circ *circuit.Circuit, fuseWidth int) error {
	return c.RunPlan(fuse.New(circ, ClampFuseWidth(fuseWidth, c.L)))
}

// applyBlock executes one fused block under the current placement.
// Diagonal blocks never communicate: node-selecting members contribute a
// fixed sub-index per node, local members a reduced diagonal applied
// through ApplyDiagN. Every other fused block requires every member qubit
// node-local (the scheduler guarantees it) and runs on each shard through
// Block.Sweep over the qubits' physical positions — which is why a
// factored block names its factors by block-local bits, not by qubit. The
// block adds no allocation to the node fan-out's own.
//
//qemu:hotpath
func (c *Cluster) applyBlock(b *fuse.Block) {
	c.Stats.Gates.Add(uint64(len(b.Gates)))
	if b.Diag != nil && c.DiagonalOptimization {
		c.applyDiagTable(b.Diag, b.Qubits)
		return
	}
	phys := c.localPositions(b.Qubits)
	c.eachNode(func(p int) { b.Sweep(c.nodes[p], phys) })
}

// localPositions returns the physical positions of a block's qubits, all
// of which must be node-local, in the Cluster's block scratch: the slice
// is valid until the next block.
func (c *Cluster) localPositions(qubits []uint) []uint {
	phys := c.blockPhys[:len(qubits)]
	for i, q := range qubits {
		if q >= c.NumQubits() {
			panic("cluster: qubit out of range")
		}
		p := c.pos[q]
		if p >= c.L {
			panic(fmt.Sprintf("cluster: block qubit %d is not node-local; run blocks through RunSchedule", q))
		}
		phys[i] = p
	}
	return phys
}
