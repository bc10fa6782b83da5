package backend

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
	"repro/internal/fuse"
	"repro/internal/gates"
	"repro/internal/recognize"
)

// The profiling pass: the first half of the profile-driven auto backend
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
// for.
var AutoFuseWidths = []int{1, 2, 4, 8}

// RegionProfile summarises one recognised region for the selector: what
// it is, what it spans, and what running its gates WOULD cost at each
// candidate fusion width — the gate-level side of the per-region
// emulate-vs-fuse decision.
type RegionProfile struct {
	// Kind is the recognize op family (qft, add, mul, diagonal, ...).
	Kind string
	// Lo and Hi bound the replaced gate range.
	Lo, Hi int
	// FieldWidth is the Fourier field width for qft ops, 0 otherwise.
	FieldWidth uint
	// SupportWidth counts the qubits the op touches.
	SupportWidth uint
	// GateUnits[i] is fuse's sweep-unit estimate of executing the
	// region's gates at fusion width AutoFuseWidths[i].
	GateUnits []float64

	// op retains the recognised op so compileAuto can match verdicts
	// back onto the recognition plan.
	op *recognize.Op
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
	// amplitude support, which is what defeats the sparse baseline.
	DiagGates   int
	BranchGates int
	// Regions lists the recognised regions in schedule order;
	// RecognizedGates is the total gate count they cover.
	Regions         []RegionProfile
	RecognizedGates int
	// ResidualUnits[i] is fuse's sweep-unit estimate of the gate
	// segments OUTSIDE recognised regions at width AutoFuseWidths[i];
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
// Auto mode — the auto backend always pattern-matches) plus the feature
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
	for _, seg := range plan.Segments {
		gs := c.Gates[seg.Lo:seg.Hi]
		if seg.Op != nil {
			r := RegionProfile{
				Kind: seg.Op.Kind(), Lo: seg.Lo, Hi: seg.Hi,
				SupportWidth: uint(len(seg.Op.Support())),
				GateUnits:    unitsPerWidth(gs),
				op:           seg.Op,
			}
			if q, ok := seg.Op.QFT(); ok {
				r.FieldWidth = q.Width
			}
			p.Regions = append(p.Regions, r)
			p.RecognizedGates += seg.Hi - seg.Lo
			continue
		}
		units := unitsPerWidth(gs)
		for i := range p.ResidualUnits {
			p.ResidualUnits[i] += units[i]
		}
		for _, g := range gs {
			p.GateByGateUnits += fuse.GateCost(g)
		}
	}
	return p, plan
}

// unitsPerWidth prices the gate slice at every candidate fusion width:
// the model's sweep-unit cost of each schedule, from fuse's cost-only
// scheduler — no block matrix is built until Compile fuses the segment at
// the width that won.
func unitsPerWidth(gs []gates.Gate) []float64 {
	out := make([]float64, len(AutoFuseWidths))
	for i, w := range AutoFuseWidths {
		out[i] = fuse.Cost(gs, w)
	}
	return out
}
