package recognize

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/circuit"
	"repro/internal/fft"
)

// Mode selects how aggressively Analyze looks for emulatable regions.
type Mode int

const (
	// Off disables emulation dispatch: the whole circuit stays on the
	// gate-level path.
	Off Mode = iota
	// Annotated lowers only regions the circuit explicitly annotates.
	Annotated
	// Auto additionally pattern-matches unannotated gate runs.
	Auto
)

func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Annotated:
		return "annotated"
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode reads a mode by its String name: off, annotated or auto —
// the spelling of the CLIs' -emulate flags.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{Off, Annotated, Auto} {
		if s == m.String() {
			return m, nil
		}
	}
	return Off, fmt.Errorf("unknown emulation mode %q (off, annotated, auto)", s)
}

// Options tune the recognition pass.
type Options struct {
	// Mode selects annotation-only or annotation+pattern recognition.
	Mode Mode
}

const (
	// MaxVerifyQubits bounds the support width the column walk (rung 2 of
	// Analyze's check) can afford: 2^w columns, each O(gates) with no state
	// for an arithmetic, phase flip or diagonal region whose gates keep
	// basis states basis states, and otherwise one application of the
	// shortcut to a 2^w state, a walk costing the sum over the gates of
	// 2^|branched| (the qubits the gates have put into superposition so
	// far) and a 2^w compare. Identity (rung 1) has no width bound; a
	// wider region without it, a lying annotation included, is kept
	// unverified (ROADMAP items 10(b), (c)).
	MaxVerifyQubits = 8
	// MaxDiagQubits bounds the support of a matched diagonal run (the
	// precomputed table holds 2^w entries).
	MaxDiagQubits = 16
	// MinDiagGates is the shortest diagonal run worth replacing; shorter
	// runs are left to the fusion scheduler.
	MinDiagGates = 4
)

// DefaultOptions returns the options the simulator dispatch uses for mode.
func DefaultOptions(mode Mode) Options {
	return Options{Mode: mode}
}

// Segment is one step of an emulation-dispatch plan: either a recognised
// shortcut (Op != nil) or the gate range [Lo, Hi) to run gate-level.
type Segment struct {
	Op     *Op
	Lo, Hi int
}

// Skip records an annotated region the pass could not (or refused to)
// lower, with the reason — surfaced so a typo'd or lying annotation is
// visible instead of silently gate-level.
type Skip struct {
	Name   string
	Lo, Hi int
	Reason string
}

// Plan is the dispatch schedule for one circuit: recognised shortcuts
// interleaved with the gate ranges that stay on the simulator path. It is
// tied to the gate sequence it was analysed from (by length; the executor
// checks) and safe to reuse across runs.
type Plan struct {
	// NumQubits and NumGates echo the analysed circuit for sanity checks.
	NumQubits uint
	NumGates  int
	// Segments is the schedule, executed left to right.
	Segments []Segment
	// Skipped lists annotated regions left at gate level, with reasons.
	Skipped []Skip
}

// Stats summarises how much of a circuit a plan emulates.
type Stats struct {
	Ops           int            // recognised shortcuts
	ByKind        map[string]int // count per shortcut family
	GatesEmulated int            // gates replaced by shortcuts
	GatesTotal    int
	Skipped       int // annotated regions left at gate level
}

// Stats scans the plan and reports its coverage.
func (p *Plan) Stats() Stats {
	st := Stats{ByKind: make(map[string]int), GatesTotal: p.NumGates, Skipped: len(p.Skipped)}
	for _, s := range p.Segments {
		if s.Op == nil {
			continue
		}
		st.Ops++
		st.ByKind[s.Op.Kind()]++
		st.GatesEmulated += s.Hi - s.Lo
	}
	return st
}

func (st Stats) String() string {
	kinds := make([]string, 0, len(st.ByKind))
	for k := range st.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%d %s", st.ByKind[k], k))
	}
	desc := strings.Join(parts, ", ")
	if desc == "" {
		desc = "none"
	}
	s := fmt.Sprintf("%d/%d gates emulated via %d shortcuts (%s)",
		st.GatesEmulated, st.GatesTotal, st.Ops, desc)
	if st.Skipped > 0 {
		s += fmt.Sprintf(", %d regions skipped", st.Skipped)
	}
	return s
}

// Describe renders one line per recognised op (and skipped region), the
// report qemu-run -emulate prints.
func (p *Plan) Describe() string {
	var b strings.Builder
	for _, s := range p.Segments {
		if s.Op != nil {
			fmt.Fprintf(&b, "  %v\n", s.Op)
		}
	}
	for _, sk := range p.Skipped {
		fmt.Fprintf(&b, "  region %s [%d,%d) skipped: %s\n", sk.Name, sk.Lo, sk.Hi, sk.Reason)
	}
	return b.String()
}

// Ops returns the recognised shortcuts in schedule order.
func (p *Plan) Ops() []*Op {
	var ops []*Op
	for _, s := range p.Segments {
		if s.Op != nil {
			ops = append(ops, s.Op)
		}
	}
	return ops
}

// Analyze builds the emulation-dispatch plan for c: annotated regions are
// lowered first (Mode >= Annotated), the gaps are pattern-matched in Auto
// mode, and everything recognised is checked against its own gates, on
// the first of the package comment's three rungs that applies, and
// dropped when a check fails. The remaining ranges execute gate-level.
func Analyze(c *circuit.Circuit, opts Options) *Plan {
	return analyze(c, opts.Mode, true)
}

// analyze is Analyze with the check optional; tests that need the ops a
// check would drop turn it off.
func analyze(c *circuit.Circuit, mode Mode, verify bool) *Plan {
	p := &Plan{NumQubits: c.NumQubits, NumGates: c.Len()}
	// The matchers and op layouts index qubits in single-word bitmasks;
	// a register wider than 64 qubits (unrunnable on the dense state
	// vector anyway) stays entirely gate-level rather than risking
	// silently wrong masks.
	if mode == Off || c.NumQubits > 64 {
		if c.Len() > 0 {
			p.Segments = []Segment{{Lo: 0, Hi: c.Len()}}
		}
		return p
	}
	var ops []*Op
	for _, r := range c.Regions {
		if r.Hi == r.Lo {
			continue
		}
		op, err := parseRegion(c.NumQubits, r, nil)
		if err != nil {
			p.Skipped = append(p.Skipped, Skip{Name: r.Name, Lo: r.Lo, Hi: r.Hi, Reason: err.Error()})
			continue
		}
		op.Annotated = true
		ops = append(ops, op)
	}
	if mode >= Auto {
		ops = append(ops, matchGaps(c, ops)...)
		sort.Slice(ops, func(i, j int) bool { return ops[i].Lo < ops[j].Lo })
	}
	if verify {
		// A region identical to an earlier one — the same compact op and
		// the same compact gates, bit for bit — takes the earlier verdict.
		verdicts, refs := map[string]verdict{}, references{}
		kept := ops[:0]
		for _, op := range ops {
			v := verifyOnce(verdicts, refs, c, op)
			if v == refuted {
				name := op.kind.String()
				p.Skipped = append(p.Skipped, Skip{Name: name, Lo: op.Lo, Hi: op.Hi,
					Reason: "unitary verification failed; falling back to gate-level"})
				continue
			}
			op.Verified = v == proven
			kept = append(kept, op)
		}
		ops = kept
	}
	p.Segments = buildSegments(ops, c.Len())
	return p
}

// verdict is what Analyze's check concludes about one op.
type verdict uint8

const (
	// unverified: wider than MaxVerifyQubits with no identity; the op is
	// kept as recognised.
	unverified verdict = iota
	// proven: the gates are the op's reference network, or every column
	// of their unitary equals the op's.
	proven
	// refuted: the op disagrees with its gates and falls back to them.
	refuted
)

// verifyOnce settles op on the first rung of Analyze's ladder that
// can: identity with its reference network (already proved when a
// reference-checking matcher found it, otherwise matchesReference, at any
// width, an arithmetic network built once per region form in refs), the
// column walk (region.holds) up to MaxVerifyQubits of support, else
// unverified. Only a region that goes on to the column walk is
// compacted and keyed: a region with an earlier verdict in verdicts, keyed
// by region.key, takes it. Identity is settled before the memo — the
// walk costs less than the key of the region it walks (a 240-gate QFT's
// is ~38 KB) — and that loses nothing, since the reference networks
// commute with the relabelling onto the compact register: two regions
// with one key are both their network or both not.
func verifyOnce(verdicts map[string]verdict, refs references, c *circuit.Circuit, op *Op) verdict {
	if op.matchedAsReference() || op.hasReference() && matchesReference(c.Gates, op, refs) {
		return proven
	}
	r, inside := compactRegion(c, op, MaxVerifyQubits)
	if r == nil {
		// An empty support, or one wider than the column walk reaches, has
		// nothing to check. A gate outside the support means the gates
		// cannot be the op: refuted.
		if !inside {
			return unverified
		}
		return refuted
	}
	key := r.key()
	v, seen := verdicts[key]
	if !seen {
		v = refuted
		if r.holds() {
			v = proven
		}
		verdicts[key] = v
	}
	return v
}

// buildSegments interleaves the (sorted, disjoint) ops with the gate
// ranges between them into a full schedule over total gates.
func buildSegments(ops []*Op, total int) []Segment {
	var segs []Segment
	cur := 0
	for _, op := range ops {
		if op.Lo > cur {
			segs = append(segs, Segment{Lo: cur, Hi: op.Lo})
		}
		segs = append(segs, Segment{Op: op, Lo: op.Lo, Hi: op.Hi})
		cur = op.Hi
	}
	if cur < total {
		segs = append(segs, Segment{Lo: cur, Hi: total})
	}
	return segs
}

// Filter returns a copy of the plan keeping only the ops the predicate
// approves; the gate ranges of dropped ops are merged back into the
// surrounding gate-level segments, and each drop is recorded in Skipped
// with the given reason. Execution engines use it to apply per-target
// policy on top of Analyze: the emulation cost model (a tiny diagonal run
// the fused kernels handle in the same single sweep) and distributed
// lowerability (an op with no cluster substrate).
func (p *Plan) Filter(keep func(*Op) bool, reason string) *Plan {
	out := &Plan{NumQubits: p.NumQubits, NumGates: p.NumGates,
		Skipped: append([]Skip(nil), p.Skipped...)}
	var ops []*Op
	for _, s := range p.Segments {
		if s.Op == nil {
			continue
		}
		if keep(s.Op) {
			ops = append(ops, s.Op)
			continue
		}
		out.Skipped = append(out.Skipped, Skip{Name: s.Op.kind.String(),
			Lo: s.Op.Lo, Hi: s.Op.Hi, Reason: reason})
	}
	out.Segments = buildSegments(ops, p.NumGates)
	return out
}

// matchGaps runs the pattern matchers over the gate ranges not covered by
// annotated ops. ops must cover disjoint ranges (circuit.Annotate's
// invariant).
func matchGaps(c *circuit.Circuit, ops []*Op) []*Op {
	sorted := append([]*Op(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	var found []*Op
	cur := 0
	scan := func(lo, hi int) {
		for i := lo; i < hi; {
			if op := matchAt(c, i, hi); op != nil {
				found = append(found, op)
				i = op.Hi
				continue
			}
			i++
		}
	}
	for _, op := range sorted {
		scan(cur, op.Lo)
		cur = op.Hi
	}
	scan(cur, c.Len())
	return found
}

// Region names whose spelling is not their opKind's.
const (
	regionReflect  = "reflect-uniform"
	regionDiagonal = "diagonal"
)

// regionLayouts gives every region family but the QFT its argument
// layout after the leading width w: one qubit register per scale entry,
// of scale·w qubits, then aux single qubits, then extra values that are
// not qubits.
var regionLayouts = map[string]struct {
	kind       opKind
	scale      []uint64
	aux, extra int
}{
	"add":          {opAdd, []uint64{1, 1}, 1, 0},
	"sub":          {opSub, []uint64{1, 1}, 1, 0},
	"addc":         {opAddc, []uint64{1, 1}, 2, 0},
	"mul":          {opMul, []uint64{1, 1, 1}, 1, 0},
	"div":          {opDiv, []uint64{2, 1, 1}, 2, 0},
	"phaseflip":    {opPhaseFlip, []uint64{1}, 0, 1},
	regionReflect:  {opReflect, []uint64{1}, 0, 0},
	regionDiagonal: {opDiag, []uint64{1}, 0, 0},
}

// parseRegion lowers one region form to an Op over a register of n <= 64
// qubits. It is the one reading and the one check of an op's layout: of a
// circuit's annotations (Analyze, table nil) and of an artifact's op
// payloads (DecodeOpBinary, Validate), where a matched diagonal run adds
// its 2^w table. Every width is compared against n before any arithmetic
// on it, so no argument wraps an int or sizes an allocation; every qubit
// must lie below n and be named once.
func parseRegion(n uint, r circuit.Region, table []complex128) (*Op, error) {
	if r.Lo < 0 || r.Hi < r.Lo {
		return nil, fmt.Errorf("%s gate range [%d,%d) invalid", r.Name, r.Lo, r.Hi)
	}
	op := &Op{Lo: r.Lo, Hi: r.Hi}
	args := r.Args
	switch r.Name {
	case "qft", "iqft", "qft-noswap", "iqft-noswap":
		if len(args) != 2 {
			return nil, fmt.Errorf("%s wants args [pos width], got %d args", r.Name, len(args))
		}
		pos, width := args[0], args[1]
		if width == 0 || pos > uint64(n) || width > uint64(n)-pos {
			return nil, fmt.Errorf("%s field of width %d at %d invalid for %d qubits", r.Name, width, pos, n)
		}
		plan, err := fft.NewPlan(uint64(1) << width)
		if err != nil {
			return nil, err
		}
		op.kind, op.pos, op.width, op.plan = opQFT, uint(pos), uint(width), plan
		op.inverse = strings.HasPrefix(r.Name, "iqft")
		op.noswap = strings.HasSuffix(r.Name, "-noswap")
		return op, nil
	}
	l, ok := regionLayouts[r.Name]
	if !ok {
		return nil, fmt.Errorf("unknown region name %q", r.Name)
	}
	if len(args) == 0 {
		return nil, fmt.Errorf("%s wants a width argument", r.Name)
	}
	w := args[0]
	if w == 0 || w > uint64(n) {
		return nil, fmt.Errorf("%s width %d out of range for %d qubits", r.Name, w, n)
	}
	nq := l.aux
	for _, s := range l.scale {
		nq += int(s * w)
	}
	if len(args) != 1+nq+l.extra {
		return nil, fmt.Errorf("%s w=%d wants %d args, got %d", r.Name, w, 1+nq+l.extra, len(args))
	}
	qs := make([]uint, nq)
	var seen uint64
	for i, q := range args[1 : 1+nq] {
		if q >= uint64(n) || q >= 64 {
			return nil, fmt.Errorf("%s qubit %d out of range (register width %d)", r.Name, q, n)
		}
		if seen&(1<<q) != 0 {
			return nil, fmt.Errorf("%s names qubit %d twice", r.Name, q)
		}
		seen |= 1 << q
		qs[i] = uint(q)
	}
	// The registers, in layout order, then the single qubits in qs.
	regs := make([][]uint, len(l.scale))
	for i, s := range l.scale {
		regs[i], qs = qs[:s*w:s*w], qs[s*w:]
	}
	op.kind = l.kind
	switch l.kind {
	case opAdd, opSub:
		op.regA, op.regB, op.carry = regs[0], regs[1], qs[0]
	case opAddc:
		op.regA, op.regB, op.carry, op.bz = regs[0], regs[1], qs[0], qs[1]
	case opMul:
		op.regA, op.regB, op.regC, op.carry = regs[0], regs[1], regs[2], qs[0]
	case opDiv:
		op.regR, op.regB, op.regQ, op.bz, op.carry = regs[0], regs[1], regs[2], qs[0], qs[1]
	case opPhaseFlip:
		value := args[len(args)-1]
		if w < 64 && value>>w != 0 {
			return nil, fmt.Errorf("phaseflip value %d exceeds %d bits", value, w)
		}
		op.qubits, op.value = sortedPattern(regs[0], value)
		return op, nil
	case opReflect:
		if uint(w) != n {
			// The two-pass mean-and-subtract shortcut needs the reflection
			// to span the whole register; field-local reflections would
			// need per-fibre sums and are not worth the complexity yet.
			return nil, fmt.Errorf("reflect-uniform spans %d of %d qubits (full register required)", w, n)
		}
		slices.Sort(regs[0])
		op.qubits = regs[0]
		return op, nil
	case opDiag:
		// Bit j of a table index is qubit j of the list, so the list is
		// taken as written: ascending, as the matcher builds it.
		if !slices.IsSorted(regs[0]) {
			return nil, fmt.Errorf("diagonal qubit list not strictly ascending")
		}
		if w >= 32 || uint64(len(table)) != 1<<w {
			return nil, fmt.Errorf("diagonal table holds %d entries for %d qubits", len(table), w)
		}
		op.qubits, op.diag = regs[0], table
		return op, nil
	}
	op.m = uint(w)
	return op, nil
}

// sortedPattern sorts the qubit list ascending, permuting the pattern bits
// alongside so bit j still refers to qubits[j].
func sortedPattern(qs []uint, value uint64) ([]uint, uint64) {
	idx := make([]int, len(qs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return qs[idx[a]] < qs[idx[b]] })
	outQ := make([]uint, len(qs))
	var outV uint64
	for j, i := range idx {
		outQ[j] = qs[i]
		outV |= ((value >> uint(i)) & 1) << uint(j)
	}
	return outQ, outV
}
