package backend

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/circuit"
	"repro/internal/fuse"
	"repro/internal/gates"
	"repro/internal/recognize"
)

// The profiling pass: the first half of the profile-driven auto target
// (ROADMAP "Profile-driven auto-backend"). It runs recognition once and
// distils the circuit into the features the selection model (select.go)
// scores candidate targets with — register width, depth, structural gate
// mix, recognised-region coverage per op kind, and fuse's sweep-unit
// estimates of the gate-level work at every candidate fusion width. The
// pass is a pure function of the circuit: no timing, no randomness, no
// state allocation (detrng-clean), so equal circuits always profile — and
// therefore select — identically.

// AutoFuseWidths is the fusion-width ladder the selector searches. Width 1
// is classic same-target fusion; the widths above it are the multi-qubit
// block sizes whose sweep costs internal/fuse has calibrated constants
// for. On an n-qubit register the ladder stops where a block's matrix
// would outgrow the state: a rung w > 1 is a candidate only if 4^w ≤ 2^n
// (autoWidthFits). Explicit targets are not bound by it: their FuseWidth
// is the caller's cap.
var AutoFuseWidths = []int{1, 2, 4, 8}

// autoWidthFits reports whether fusion width w is an auto candidate on an
// n-qubit register: w == 1, or 2w ≤ n, so the 2^w×2^w block matrix holds
// no more entries than the 2^n state. Past that point fusing loses on
// both ends: a w-block is built by running its gates over a 2w-qubit
// register, dearer than running them once on the state, and the sweep
// reads its 4^w entries for only 2^(n−w) < 2^w groups.
func autoWidthFits(w int, n uint) bool { return w == 1 || uint(2*w) <= n }

// RegionProfile summarises one recognised region for the selector: what
// it is, what it spans, and what running its gates WOULD cost at each
// candidate fusion width — the gate-level side of the per-region
// emulate-vs-fuse decision.
type RegionProfile struct {
	// Kind is the recognize op family (qft, add, mul, diagonal, ...).
	Kind string
	// Lo and Hi bound the replaced gate range.
	Lo, Hi int
	// Op is the recognised op: the Fourier cost reads its field width,
	// and the cluster round estimate prices it by the lowering
	// cluster.Lowerable names for it.
	Op *recognize.Op
	// SupportWidth counts the qubits the op touches.
	SupportWidth uint
	// GateUnits[i] is fuse's sweep-unit estimate of executing the
	// region's gates at fusion width AutoFuseWidths[i], +Inf for a rung
	// the register excludes (autoWidthFits).
	GateUnits []float64
}

// Profile is the feature vector the selection model consumes.
type Profile struct {
	// NumQubits and NumGates echo the circuit.
	NumQubits uint
	NumGates  int
	// Depth is the as-soon-as-possible circuit depth.
	Depth int
	// DiagGates counts structurally diagonal gates (phase family);
	// BranchGates counts dense gates — the ones that can spread
	// amplitude support, and on a cluster the ones that force remaps.
	DiagGates   int
	BranchGates int
	// Regions lists the recognised regions in schedule order;
	// RecognizedGates is the total gate count they cover.
	Regions         []RegionProfile
	RecognizedGates int
	// ResidualUnits[i] is fuse's sweep-unit estimate of the gate
	// segments OUTSIDE recognised regions at width AutoFuseWidths[i]
	// (+Inf for an excluded rung, even with no residual gates);
	// GateByGateUnits is the same work applied gate by gate (fuse's
	// baseline estimate, width-independent).
	ResidualUnits   []float64
	GateByGateUnits float64
}

// DiagFrac returns the diagonal fraction of the circuit's gates.
func (p *Profile) DiagFrac() float64 {
	if p.NumGates == 0 {
		return 0
	}
	return float64(p.DiagGates) / float64(p.NumGates)
}

func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d qubits, %d gates, depth %d, %.0f%% diagonal, %d/%d gates in %d recognised regions",
		p.NumQubits, p.NumGates, p.Depth, 100*p.DiagFrac(), p.RecognizedGates, p.NumGates, len(p.Regions))
	return b.String()
}

// ProfileCircuit runs the profiling pass: one recognition analysis (in
// Auto mode — the auto target always pattern-matches) plus the feature
// extraction above. The returned plan is the recognition result the
// caller can Filter with the selector's verdicts, so compilation never
// re-runs the expensive recognition/verification passes.
func ProfileCircuit(c *circuit.Circuit) (*Profile, *recognize.Plan) {
	plan := recognize.Analyze(c, recognize.DefaultOptions(recognize.Auto))
	p := &Profile{NumQubits: c.NumQubits, NumGates: c.Len(), Depth: c.Depth()}
	for _, g := range c.Gates {
		switch g.Kind() {
		case gates.Diagonal:
			p.DiagGates++
		case gates.Dense:
			p.BranchGates++
		}
	}

	p.ResidualUnits = make([]float64, len(AutoFuseWidths))
	for i, w := range AutoFuseWidths {
		if !autoWidthFits(w, c.NumQubits) {
			p.ResidualUnits[i] = math.Inf(1) // kept by the sums below
		}
	}
	for _, seg := range plan.Segments {
		gs := c.Gates[seg.Lo:seg.Hi]
		if seg.Op != nil {
			r := RegionProfile{
				Kind: seg.Op.Kind(), Lo: seg.Lo, Hi: seg.Hi, Op: seg.Op,
				SupportWidth: uint(len(seg.Op.Support())),
				GateUnits:    unitsPerWidth(gs, c.NumQubits),
			}
			p.Regions = append(p.Regions, r)
			p.RecognizedGates += seg.Hi - seg.Lo
			continue
		}
		units := unitsPerWidth(gs, c.NumQubits)
		for i := range p.ResidualUnits {
			p.ResidualUnits[i] += units[i]
		}
		for _, g := range gs {
			p.GateByGateUnits += fuse.GateCost(g)
		}
	}
	return p, plan
}

// unitsPerWidth prices the gate slice at every candidate fusion width of
// an n-qubit register: the model's sweep-unit cost of each schedule, from
// fuse's cost-only scheduler — no block matrix is built until Compile
// fuses the segment at the width that won. A rung the register excludes
// is not scheduled and costs +Inf.
func unitsPerWidth(gs []gates.Gate, n uint) []float64 {
	out := make([]float64, len(AutoFuseWidths))
	for i, w := range AutoFuseWidths {
		if autoWidthFits(w, n) {
			out[i] = fuse.Cost(gs, w)
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}
