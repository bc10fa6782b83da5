package fuse

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitops"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/statevec"
)

// MaxWidth caps the fusion width at what the generic state-vector kernel
// accepts; see statevec.MaxMatrixNQubits for the rationale.
const MaxWidth = statevec.MaxMatrixNQubits

// maxDeferred bounds how many gates the scheduler may hoist past one block
// before force-closing it, keeping planning linear in circuit length.
const maxDeferred = 256

// diagEps is the tolerance below which an off-diagonal entry of a fused
// block is treated as exactly zero when classifying the block as diagonal.
const diagEps = 1e-14

// Cost model. All costs are in "sweep units": 1.0 is one full dense-2x2
// sweep of the state vector (statevec.ApplyMatrix2). The constants only
// need to be right in ratio for the scheduler to pick the cheaper of
// replaying a run gate by gate versus collapsing it into one dense or
// diagonal block sweep.
var (
	// denseBlockCost[w] is one dense 2^w-block sweep through statevec's
	// AVX2/FMA assembly body, as read when that body landed. The numbers
	// are the "sweeps" column of
	//
	//	go test -run xxx -bench BenchmarkDenseBlock ./internal/statevec/
	//
	// (median of five runs, 2 vCPUs; the sweep's time over an
	// ApplyMatrix2 sweep of the same state), per width the dearer of the
	// cache-resident n=12 and the n=20 reading, so a block that is chosen
	// pays in both regimes: n=12 0.80 / 1.10 / 1.90 / 3.49 / 7.0 / 13.1 /
	// 25.7 for w = 2..8, n=20 0.77 / 0.89 / 1.64 / 3.08 for w = 2..5.
	// Before the assembly body the table read 1.7 / 5.4 / 8.6 / 16.5 / 33
	// / 66 / 132, which is still what the pure-Go body costs (1.7 / 5.2 /
	// 10 / 17 / 32 / 76 / 121 at n=12).
	//
	// Read again with the AVX-512 body beside it (same command, its
	// from=1 rows, median of five): AVX-512 n=12 0.45 / 0.46 / 0.82 / 1.65
	// / 2.8 / 4.7 / 9.0, n=20 0.42 / 0.53 / 0.81 / 1.36; AVX2 n=12 0.67 /
	// 0.81 / 1.65 / 3.1 / 6.8 / 9.5 / 25, n=20 0.61 / 0.88 / 1.37 / 2.50.
	// A host that runs the ZMM body therefore pays about half these
	// prices from w = 3 up. The prices were deliberately not moved with
	// that body: plans, fingerprints, artifacts and pins stay byte for
	// byte what they were, so the whole gain is the kernel's, and the new
	// readings are data for the perfmodel table (ROADMAP item 3), where
	// per-host prices belong. There is one table on every host, so plans
	// do not depend on where they were compiled; a host without AVX2 runs
	// them correctly but over-fused.
	//
	// A factored block (Block.Factors) is priced as the dense block it
	// replaces, and runs for less. The same command's f= rows (median of
	// five, from=1 / from=2, on a busy box: the dense rows beside them read
	// w = 4 / 5 / 6 at 0.72 / 1.73 / 3.18 at n=12 and 1.13 / 1.79 at n=20):
	// AVX-512, one in-tile sweep, n=12 f=2+2 0.94 / 0.60, f=2+3 1.06 /
	// 0.64, f=2+2+2 0.91 / 0.82; n=20 0.67 / 0.66, 0.80 / 0.65, 0.90 / 0.88
	// (ns/amp at n=20: 1.30 / 0.86 against dense w=4's 1.48 / 1.22, 1.45 /
	// 1.44 against w=5's 2.56 / 2.65, 2.06 / 1.46 for f=2+2+2). AVX2, a
	// sweep per factor, n=20: 1.42 / 1.36, 1.32 / 1.53, 1.99 / 2.58 against
	// dense 1.78 and 2.38 at w = 4 and 5. Pure Go, n=20 from=1: 3.7 / 6.7 /
	// 5.5 against 9.4 / 18 and, at n=12, 36. A five- or six-qubit block of
	// two- and three-qubit factors therefore costs what a dense three- or
	// four-qubit one does, where the table charges 3.5 and 7.0: with a
	// factored price (a fixed part plus the sum of the factors' 2^k) plans
	// would widen past w = 4. That price is ROADMAP item 3's; none moved
	// here, so plans are what they were.
	denseBlockCost = [MaxWidth + 1]float64{2: 0.8, 3: 1.1, 4: 1.9, 5: 3.5, 6: 7.0, 7: 13, 8: 26}
	// diagBlockCost is one statevec.ApplyDiagN sweep, width-independent.
	diagBlockCost = 1.0
)

// GateCost estimates one gate-by-gate application through the specialised
// kernels (statevec.ApplyGate), in sweep units. Controls cut the touched
// fraction of the state, which the controlled kernels exploit.
func GateCost(g gates.Gate) float64 {
	nc := len(g.Controls)
	ctrl := 1.0
	switch {
	case nc == 1:
		ctrl = 0.6
	case nc >= 2:
		ctrl = 0.45
	}
	switch g.Kind() {
	case gates.Identity:
		if g.Matrix[0] == 1 {
			return 0
		}
		return 0.8 * ctrl
	case gates.Diagonal:
		return 0.8 * ctrl
	case gates.AntiDiagonal:
		return 0.7 * ctrl
	default:
		if nc == 0 && g.Matrix == gates.MatH {
			return 0.65
		}
		return 1.0 * ctrl
	}
}

// Block is one execution unit of a fused schedule: a dense 2^w block, a
// diagonal block, or an unfused run replayed gate by gate (when the cost
// model says the specialised single-gate kernels are cheaper, or when a
// gate's support exceeds the width budget).
type Block struct {
	// Qubits is the block's support in ascending order. Bit j of the local
	// 2^w index of Matrix/Diag corresponds to Qubits[j], matching the
	// convention of statevec.ApplyMatrixN. Nil for an unfused run.
	Qubits []uint
	// Matrix is the dense row-major 2^w x 2^w unitary of a fused run whose
	// gates connect all its qubits. It is nil for unfused runs, diagonal
	// blocks and factored blocks.
	Matrix []complex128
	// Factors is the form of a dense block whose gates fall into groups on
	// disjoint qubits: the Kronecker factors, each a unitary on some of the
	// block's local bit positions (bit j is Qubits[j]), that Matrix would
	// have multiplied out. The kernel applies them one after the other to
	// each gathered group of amplitudes, at the sum of the factors' 2^k
	// multiplies per amplitude instead of 2^w. Dense returns the product.
	Factors *statevec.Factored
	// Diag holds the 2^w diagonal of a diagonal block — a run whose gates
	// are all diagonal on the state (phase/Rz/CR), or a dense run whose
	// product came out numerically diagonal; the executor then applies it
	// with one multiply per amplitude instead of the dense kernel.
	Diag []complex128
	// Gates lists the original gates of the block in execution order, for
	// introspection and statistics.
	Gates []gates.Gate
	// replay is what the executor runs for an unfused block: the original
	// gates with same-target single-qubit runs merged, so an unfused run
	// still matches the paper's classic fusion.
	replay []gates.Gate
	// cost is the model's sweep-unit estimate of executing this block.
	cost float64
}

// Fused reports whether the block is a merged multi-gate unitary rather
// than a replayed run.
func (b *Block) Fused() bool { return b.Matrix != nil || b.Factors != nil || b.Diag != nil }

// Dense returns the 2^w x 2^w row-major unitary of a dense block — Matrix,
// or the product of Factors, multiplied out on each call — and nil for a
// diagonal or unfused block. It is for tests and introspection: executors
// call Sweep.
func (b *Block) Dense() []complex128 {
	if b.Factors != nil {
		return b.Factors.Dense()
	}
	return b.Matrix
}

// Sweep executes a fused block on s in one pass over the state. qubits
// lists where the block's qubits sit in s, position for position with
// Qubits: b.Qubits itself for a whole-register state, the remapped
// node-local positions for a shard of internal/cluster. It is the one
// place that knows the forms a fused block takes.
//
//qemu:hotpath
func (b *Block) Sweep(s *statevec.State, qubits []uint) {
	switch {
	case b.Diag != nil:
		s.ApplyDiagN(b.Diag, qubits)
	case b.Factors != nil:
		s.ApplyFactored(b.Factors, qubits)
	case b.Matrix != nil:
		s.ApplyMatrixN(b.Matrix, qubits)
	default:
		panic("fuse: Sweep on an unfused block")
	}
}

// Replay returns the executor's gate sequence for an unfused block: the
// original gates with maximal same-target single-qubit runs merged. It is
// nil for fused blocks. Executors other than Plan.Apply (the distributed
// engine of internal/cluster) walk it to schedule unfused work gate by
// gate without losing the classic same-target fusion.
func (b *Block) Replay() []gates.Gate { return b.replay }

// Plan is a fused execution schedule for one circuit. It is immutable
// after construction and safe to reuse across runs and goroutines.
type Plan struct {
	// Width is the (clamped) fusion width the plan was built with.
	Width int
	// Blocks is the schedule, executed left to right.
	Blocks []Block
}

// Stats summarises how much a plan compressed its circuit and what the
// cost model expects the compression to buy.
type Stats struct {
	Gates    int // original gates across all blocks
	Blocks   int // execution units in the plan
	Dense    int // dense fused blocks, factored ones included
	Factored int // dense blocks run as Kronecker factors
	Diagonal int // diagonal fused blocks
	Unfused  int // blocks replayed gate by gate (same-target runs merged)
	MaxRun   int // largest number of gates folded into one fused block
	// MulsDense and MulsRun are the complex multiplies per amplitude of the
	// plan's dense blocks: 2^w a block as if each were multiplied out, and
	// what the kernels do — the sum of its factors' 2^k for a factored one.
	MulsDense, MulsRun int
	// EstGateByGate and EstChosen are the model's sweep-unit costs of
	// applying every original gate individually versus the chosen
	// schedule; their ratio is the predicted fusion speedup.
	EstGateByGate float64
	EstChosen     float64
}

// Stats scans the plan and reports its compression profile.
func (p *Plan) Stats() Stats {
	var st Stats
	st.Blocks = len(p.Blocks)
	for i := range p.Blocks {
		b := &p.Blocks[i]
		st.Gates += len(b.Gates)
		for _, g := range b.Gates {
			st.EstGateByGate += GateCost(g)
		}
		st.EstChosen += b.cost
		switch {
		case b.Diag != nil:
			st.Diagonal++
		case b.Factors != nil:
			st.Dense++
			st.Factored++
			st.MulsDense += 1 << len(b.Qubits)
			for i := 0; i < b.Factors.Len(); i++ {
				st.MulsRun += 1 << len(b.Factors.Factor(i).Bits)
			}
		case b.Matrix != nil:
			st.Dense++
			st.MulsDense += 1 << len(b.Qubits)
			st.MulsRun += 1 << len(b.Qubits)
		default:
			st.Unfused++
		}
		if b.Fused() && len(b.Gates) > st.MaxRun {
			st.MaxRun = len(b.Gates)
		}
	}
	return st
}

// Add folds the statistics of another plan — another gate segment of the
// same circuit — into st: counts and costs add, MaxRun is the larger.
func (st *Stats) Add(o Stats) {
	st.Gates += o.Gates
	st.Blocks += o.Blocks
	st.Dense += o.Dense
	st.Factored += o.Factored
	st.Diagonal += o.Diagonal
	st.Unfused += o.Unfused
	st.MaxRun = max(st.MaxRun, o.MaxRun)
	st.MulsDense += o.MulsDense
	st.MulsRun += o.MulsRun
	st.EstGateByGate += o.EstGateByGate
	st.EstChosen += o.EstChosen
}

func (st Stats) String() string {
	speedup := 1.0
	if st.EstChosen > 0 {
		speedup = st.EstGateByGate / st.EstChosen
	}
	return fmt.Sprintf("%d gates -> %d blocks (%d dense, %d of them factored: %d of %d multiplies/amp; %d diagonal, %d unfused, max run %d, est. %.2fx)",
		st.Gates, st.Blocks, st.Dense, st.Factored, st.MulsRun, st.MulsDense, st.Diagonal, st.Unfused, st.MaxRun, speedup)
}

// item is one gate of the scheduler's stream together with the two facts
// every scheduling decision reads: its support mask and whether its full
// matrix (controls included) is diagonal. g points into the caller's gate
// slice, which the scheduler never writes.
type item struct {
	g    *gates.Gate
	mask uint64
	diag bool
}

// itemsOf builds the scheduler's stream for a gate slice.
func itemsOf(gs []gates.Gate) []item {
	queue := make([]item, len(gs))
	for i := range gs {
		g := &gs[i]
		queue[i] = item{g: g, mask: bitops.ControlMask(g.Controls) | 1<<g.Target, diag: g.IsDiagonalOnState()}
	}
	return queue
}

// commutes is a sufficient (not necessary) commutation test: gates on
// disjoint qubit sets always commute, and gates whose full matrices are
// diagonal (controls included) commute regardless of support.
func commutes(a, b item) bool {
	return a.mask&b.mask == 0 || (a.diag && b.diag)
}

// commutesWithAll reports whether g commutes with every deferred gate.
func commutesWithAll(g item, deferred []item) bool {
	for _, d := range deferred {
		if !commutes(g, d) {
			return false
		}
	}
	return true
}

// blockKind is the scheduler's verdict on how a run executes.
type blockKind uint8

const (
	replayKind blockKind = iota // gate by gate, same-target runs merged
	denseKind                   // one 2^w x 2^w sweep
	diagKind                    // one diagonal sweep
)

// scheduler is one scheduling pass: where its blocks go, and the scan's
// scratch. Re-planning a run recurses to strictly narrower widths, so each
// width level owns a run and a deferred buffer, and a closed run stays
// intact while the levels below re-tile it.
type scheduler struct {
	// emit receives the blocks in execution order: the verdict, the run's
	// gates, their combined support and the model cost. run aliases the
	// scratch below and is valid only for the duration of the call.
	emit    func(kind blockKind, run []item, support uint64, cost float64)
	scratch [MaxWidth + 1]struct{ run, deferred []item }
}

func clampWidth(width int) int {
	if width < 1 {
		return 1
	}
	if width > MaxWidth {
		return MaxWidth
	}
	return width
}

// New builds a fused schedule for c with the given fusion width. Width is
// clamped to [1, MaxWidth]; width 1 degenerates to the paper's same-target
// single-qubit fusion expressed as unfused runs.
//
// The scheduler scans gates in order, growing the current block while the
// union of supports fits in width qubits. A gate that does not fit is
// deferred past the block when it provably commutes with every gate the
// block may still absorb (see the package comment); otherwise the block is
// closed. Deferred gates re-enter the stream right after the block, so a
// hoisted diagonal tail can seed or join the next block.
//
// Each closed run is lowered, from its structure alone, to whatever the
// cost model says is cheapest: a diagonal sweep when the run is
// structurally diagonal (see diagonalFactors), a dense 2^w sweep when the
// run absorbs enough work to amortise 2^w multiplies per amplitude, or —
// when neither pays, e.g. a run of two cheap gates on far-apart qubits — a
// gate-by-gate replay with same-target runs merged, recursively re-planned
// at width-1 first so a 5-wide region can still yield profitable 2- and
// 3-wide tiles. A plan therefore never does worse than the classic fusion
// path by more than the model's estimation error. Only then are the
// surviving blocks materialised: one matrix (or 2^w diagonal vector) per
// fused block of the final schedule, none for runs that ended up narrower
// or replayed.
//
// A block's scan reads its run, at most maxDeferred hoisted gates and the
// gate that closed it, and writes back only the hoisted ones; a gate that
// fits the block is also compared with every gate deferred so far. Per
// re-planning level (at most MaxWidth-1, over disjoint runs) scheduling is
// therefore O(len(gates) * maxDeferred) while blocks defer few gates —
// every circuit family in the tests — and O(len(gates) * maxDeferred^2)
// worst case. Materialisation adds O(4^w) per gate of a dense block and
// O(2^w) per gate of a diagonal one.
func New(c *circuit.Circuit, width int) *Plan {
	p := &Plan{Width: clampWidth(width)}
	s := scheduler{emit: func(kind blockKind, run []item, support uint64, cost float64) {
		p.Blocks = append(p.Blocks, materialise(kind, run, support, cost))
	}}
	s.schedule(itemsOf(c.Gates), p.Width)
	return p
}

// Cost is the cost-only entry point: the model's sweep-unit estimate of
// executing gs under a width-wide fused schedule. It runs the same
// scheduler as New and skips materialisation, so it builds no matrix and
// returns exactly New(c, width).Stats().EstChosen for a circuit c over gs.
func Cost(gs []gates.Gate, width int) float64 {
	total := 0.0
	s := scheduler{emit: func(_ blockKind, _ []item, _ uint64, cost float64) { total += cost }}
	s.schedule(itemsOf(gs), clampWidth(width))
	return total
}

// schedule is the greedy block-forming scan over an item stream. It works
// in place behind a cursor: when a block closes, everything between the
// cursor and the scan position is either in the run or deferred, so the
// deferred gates are written back just before the scan position and the
// cursor resumes there — the gates the scan never reached do not move.
func (s *scheduler) schedule(queue []item, width int) {
	buf := &s.scratch[width]
	for pos := 0; pos < len(queue); {
		head := queue[pos]
		if bitops.PopCount(head.mask) > width {
			s.lowerRun(queue[pos:pos+1], head.mask)
			pos++
			continue
		}
		buf.run = append(buf.run[:0], head)
		buf.deferred = buf.deferred[:0]
		support := head.mask
		i := pos + 1
		for i < len(queue) && len(buf.deferred) < maxDeferred {
			it := queue[i]
			if union := support | it.mask; bitops.PopCount(union) <= width && commutesWithAll(it, buf.deferred) {
				buf.run = append(buf.run, it)
				support = union
				i++
				continue
			}
			// it cannot join the block. Hoisting it past the block is safe
			// unconditionally (it already follows every gate currently in
			// the block); the commutesWithAll check above protects it from
			// later block additions jumping over it. Only defer gates with
			// a chance of staying out of the block's way, so the scan
			// doesn't stall collecting unfuseable gates.
			if it.diag || it.mask&support == 0 {
				buf.deferred = append(buf.deferred, it)
				i++
				continue
			}
			break
		}
		s.lowerRun(buf.run, support)
		pos = i - len(buf.deferred)
		copy(queue[pos:i], buf.deferred)
	}
}

// lowerRun decides how one scheduled run executes — diagonal sweep, dense
// sweep, narrower re-planning, or gate-by-gate replay — from the run's
// structure and the cost model alone; no block matrix is built here.
func (s *scheduler) lowerRun(run []item, support uint64) {
	w := bitops.PopCount(support)
	replay := mergeReplay(run, nil)
	switch {
	case len(run) == 1 || w < 2:
		// Nothing to fuse.
	case diagonalFactors(run, nil):
		// Narrower tiles of a diagonal run would each cost the same
		// diagonal sweep, so a run it does not pay for is replayed.
		if diagBlockCost < replay {
			s.emit(diagKind, run, support, diagBlockCost)
			return
		}
	case denseBlockCost[w] < replay:
		s.emit(denseKind, run, support, denseBlockCost[w])
		return
	case w > 2:
		// The wide block does not pay; narrower tiles of the same run
		// might (e.g. a 5-qubit region that splits into rich 2-qubit
		// pairs). Each recursive level strictly shrinks the width, and
		// every sub-block again falls back to replay at worst. The inner
		// scan reorders run in place, which is scratch from here on.
		s.schedule(run, w-1)
		return
	}
	s.emit(replayKind, run, support, replay)
}

// mergeReplay walks the unfused form of a run — the original gates with
// maximal same-target uncontrolled single-qubit runs merged into single
// gates, the paper's classic fusion, so an unfused block is never slower
// than the Fuse option of the simulator — and returns the model estimate
// of that sequence. When out is non-nil the sequence is appended to it.
func mergeReplay(run []item, out *[]gates.Gate) float64 {
	cost := 0.0
	for i := 0; i < len(run); {
		g := *run[i].g
		j := i + 1
		if len(g.Controls) == 0 {
			m := g.Matrix
			for j < len(run) && len(run[j].g.Controls) == 0 && run[j].g.Target == g.Target {
				m = run[j].g.Matrix.Mul(m)
				j++
			}
			if j > i+1 {
				g = gates.Gate{Name: "fused", Matrix: m, Target: g.Target}
			}
		}
		if out != nil {
			*out = append(*out, g)
		}
		cost += GateCost(g)
		i = j
	}
	return cost
}

// diagonalFactors is the structural diagonality rule. Uncontrolled
// single-qubit gates on one qubit commute with everything in the run that
// does not touch that qubit, so they are multiplied into one pending 2x2
// per qubit, closed when a controlled gate touches the qubit or the run
// ends. The run is a diagonal block iff every closed product and every
// controlled gate is diagonal on the state: phase/Rz/CR runs, and also
// H·H or H·X·H on one qubit with foreign gates in between. Products of
// entangling gates that happen to cancel (H·CX·H) are not recognised;
// such a run is priced as dense. When out is non-nil the diagonal factors,
// whose product is the run's, are appended to it.
func diagonalFactors(run []item, out *[]gates.Gate) bool {
	var pending [64]gates.Matrix2
	var open uint64 // qubits with a pending product
	closeQubits := func(mask uint64) bool {
		for m := mask & open; m != 0; m &= m - 1 {
			q := uint(bits.TrailingZeros64(m))
			g := gates.Gate{Name: "fused", Matrix: pending[q], Target: q}
			if !g.IsDiagonalOnState() {
				return false
			}
			if out != nil {
				*out = append(*out, g)
			}
		}
		open &^= mask
		return true
	}
	for _, it := range run {
		if q := it.g.Target; len(it.g.Controls) == 0 {
			if open&(1<<q) != 0 {
				pending[q] = it.g.Matrix.Mul(pending[q])
			} else {
				pending[q] = it.g.Matrix
				open |= 1 << q
			}
			continue
		}
		if !it.diag || !closeQubits(it.mask) {
			return false
		}
		if out != nil {
			*out = append(*out, *it.g)
		}
	}
	return closeQubits(open)
}

// materialise builds the execution form of one scheduled block: the
// original gates kept for introspection, plus the replay sequence, the
// 2^w diagonal or the dense matrix the verdict calls for. A dense block
// whose product turns out numerically diagonal (H·X·H) executes through
// the cheaper diagonal kernel; its cost stays the planned one.
func materialise(kind blockKind, run []item, support uint64, cost float64) Block {
	b := Block{Gates: make([]gates.Gate, len(run)), cost: cost}
	for i, it := range run {
		b.Gates[i] = *it.g
	}
	if kind == replayKind {
		b.replay = make([]gates.Gate, 0, len(run))
		mergeReplay(run, &b.replay)
		return b
	}
	var pos [64]uint
	for q := uint(0); q < 64; q++ {
		if support&(1<<q) != 0 {
			pos[q] = uint(len(b.Qubits))
			b.Qubits = append(b.Qubits, q)
		}
	}
	dim := 1 << len(b.Qubits)
	if kind == diagKind {
		factors := make([]gates.Gate, 0, len(run))
		diagonalFactors(run, &factors)
		b.Diag = diagonalProduct(factors, dim, &pos)
		return b
	}
	parts, n := factorBits(run, &pos)
	if n < 2 {
		m := accumulate(run, support, dim, &pos)
		if d, ok := diagonalOf(m, dim); ok {
			b.Diag = d
		} else {
			b.Matrix = m
		}
		return b
	}
	// One matrix per part, over the part's own bits: pos is re-pointed at
	// the position inside the part, a part at a time — accumulate reads it
	// for the part's gates only.
	factors := make([]statevec.Factor, n)
	local := make([]uint, 0, len(b.Qubits))
	for i, part := range parts[:n] {
		var sup uint64
		first := len(local)
		for m := part; m != 0; m &= m - 1 {
			bit := uint(bits.TrailingZeros(m))
			pos[b.Qubits[bit]] = uint(len(local) - first)
			sup |= 1 << b.Qubits[bit]
			local = append(local, bit)
		}
		factors[i] = statevec.Factor{Bits: local[first:], Matrix: accumulate(run, sup, 1<<(len(local)-first), &pos)}
	}
	if d, ok := diagonalOfFactors(factors, dim); ok {
		b.Diag = d
	} else {
		b.Factors = statevec.NewFactored(uint(len(b.Qubits)), factors)
	}
	return b
}

// factorBits splits a dense block's local bit positions into the parts its
// run is a Kronecker product over: the connected components of the gates'
// interaction graph (a gate joins its controls and its target), with
// single-bit components paired up and an odd one out joined to the
// narrowest other part, because the block kernels start at two qubits.
// pos maps a qubit to its local bit. Fewer than two parts means the block
// is one dense matrix.
func factorBits(run []item, pos *[64]uint) (parts [MaxWidth / 2]uint, n int) {
	var comps [MaxWidth]uint
	nc := 0
	for _, it := range run {
		var touched uint
		for m := it.mask; m != 0; m &= m - 1 {
			touched |= 1 << pos[bits.TrailingZeros64(m)]
		}
		kept := 0
		for _, c := range comps[:nc] {
			if c&touched != 0 {
				touched |= c
			} else {
				comps[kept] = c
				kept++
			}
		}
		comps[kept] = touched
		nc = kept + 1
	}
	var single uint
	for _, c := range comps[:nc] {
		switch {
		case c&(c-1) != 0:
			parts[n] = c
			n++
		case single == 0:
			single = c
		default:
			parts[n] = single | c
			n++
			single = 0
		}
	}
	if single != 0 && n > 0 {
		narrowest := 0
		for i := 1; i < n; i++ {
			if bits.OnesCount(parts[i]) < bits.OnesCount(parts[narrowest]) {
				narrowest = i
			}
		}
		parts[narrowest] |= single
	}
	return parts, n
}

// localMasks returns g's target bit and control mask in the block's local
// 2^w index space.
func localMasks(g *gates.Gate, pos *[64]uint) (tb, cm int) {
	for _, c := range g.Controls {
		cm |= 1 << pos[c]
	}
	return 1 << pos[g.Target], cm
}

// diagonalProduct multiplies a sequence of state-diagonal gates straight
// into the block's 2^w diagonal: entry i picks up each gate's |0> or |1>
// phase by i's target bit wherever i satisfies the gate's controls.
func diagonalProduct(seq []gates.Gate, dim int, pos *[64]uint) []complex128 {
	d := make([]complex128, dim)
	for i := range d {
		d[i] = 1
	}
	for k := range seq {
		g := &seq[k]
		tb, cm := localMasks(g, pos)
		for i := range d {
			switch {
			case i&cm != cm:
			case i&tb == 0:
				d[i] *= g.Matrix[0]
			default:
				d[i] *= g.Matrix[3]
			}
		}
	}
	return d
}

// accumulate multiplies the run's gates on the qubits of support — the
// whole block's, or one factor's: a gate lies inside a factor or outside
// it — into one dense dim x dim matrix over the local bits pos gives them.
func accumulate(run []item, support uint64, dim int, pos *[64]uint) []complex128 {
	m := make([]complex128, dim*dim)
	for i := 0; i < dim; i++ {
		m[i*dim+i] = 1
	}
	for _, it := range run {
		if it.mask&support != 0 {
			mulInto(m, dim, it.g, pos)
		}
	}
	return m
}

// mulInto left-multiplies the local embedding of gate g into the
// accumulated block matrix m (dim x dim, row-major). Each column of m is
// treated as a 2^w state vector and g is applied to it exactly as the
// state kernels apply it to the global vector: rows whose control bits are
// not all set are untouched, satisfied row pairs get the 2x2.
func mulInto(m []complex128, dim int, g *gates.Gate, pos *[64]uint) {
	tb, cm := localMasks(g, pos)
	for r0 := 0; r0 < dim; r0++ {
		if r0&tb != 0 || r0&cm != cm {
			continue
		}
		row0 := m[r0*dim : r0*dim+dim]
		row1 := m[(r0|tb)*dim : (r0|tb)*dim+dim]
		for c := range row0 {
			a0, a1 := row0[c], row1[c]
			row0[c] = g.Matrix[0]*a0 + g.Matrix[1]*a1
			row1[c] = g.Matrix[2]*a0 + g.Matrix[3]*a1
		}
	}
}

// diagonalOf extracts the diagonal of m when every off-diagonal entry is
// negligible (both components within diagEps), reporting ok=false
// otherwise.
func diagonalOf(m []complex128, dim int) ([]complex128, bool) {
	for r := 0; r < dim; r++ {
		for c, v := range m[r*dim : r*dim+dim] {
			if r != c && (math.Abs(real(v)) > diagEps || math.Abs(imag(v)) > diagEps) {
				return nil, false
			}
		}
	}
	d := make([]complex128, dim)
	for i := range d {
		d[i] = m[i*dim+i]
	}
	return d, true
}

// diagonalOfFactors is diagonalOf for a block in factors: the product is
// diagonal exactly when every factor is, and entry x of its diagonal is
// the product of the factors' entries at the bits of x each one owns.
func diagonalOfFactors(factors []statevec.Factor, dim int) ([]complex128, bool) {
	var diags [MaxWidth / 2][]complex128
	for i, f := range factors {
		fd, ok := diagonalOf(f.Matrix, 1<<len(f.Bits))
		if !ok {
			return nil, false
		}
		diags[i] = fd
	}
	d := make([]complex128, dim)
	for x := range d {
		d[x] = 1
		for i, f := range factors {
			y := 0
			for j, bit := range f.Bits {
				y |= x >> bit & 1 << j
			}
			d[x] *= diags[i][y]
		}
	}
	return d, true
}

// Apply executes the plan against a state vector: fused blocks through the
// generic (or diagonal) multi-qubit kernels, unfused runs through apply,
// which the caller points at its preferred single-gate path.
//
//qemu:hotpath
func (p *Plan) Apply(s *statevec.State, apply func(gates.Gate)) {
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if b.Fused() {
			b.Sweep(s, b.Qubits)
			continue
		}
		for _, g := range b.replay {
			apply(g)
		}
	}
}
