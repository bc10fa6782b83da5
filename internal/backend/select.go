package backend

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/recognize"
)

// The selection pass: the second half of the profile-driven auto target.
// SelectTarget scores every candidate execution shape — the fused engine
// at each fusion width and the distributed engine — against a circuit
// Profile using the constants of internal/perfmodel, and
// returns the cheapest together with the full scoring table and the
// per-region emulate-vs-fuse verdicts that replace the static diagonal
// cutoff of explicit targets. The structure-blind baseline is a reference
// to measure against, not an engine the system serves, so it is never a
// candidate.
// The pass is pure: costs come from the Measured constants handed in
// (perfmodel.Active() is one fixed table: no file, no clock), so equal profiles
// always select the same target and the detrng contract holds.

// DefaultAutoMaxLocalQubits is the auto target's per-node capacity
// policy: registers needing more than 2^28 amplitudes per node (4 GiB of
// complex128) shard across the distributed engine. Below it, single-node
// candidates compete on predicted time alone.
const DefaultAutoMaxLocalQubits uint = 28

// Candidate is one scored execution shape. Cost is the model's predicted
// wall time in seconds under the model's constants; +Inf marks a shape
// the capacity policy rules out, with Note saying why.
type Candidate struct {
	Target Target
	Cost   float64
	Note   string
}

// RegionVerdict is the model's per-region decision for the chosen
// target: emulate the recognised op, or keep its gates on the fused
// path. Both predicted costs are retained so the decision is auditable.
type RegionVerdict struct {
	Kind    string
	Lo, Hi  int
	Emulate bool
	// EmulateSecs and GateSecs are the modelled costs of the two ways to
	// run the region; Reason states the comparison in words.
	EmulateSecs float64
	GateSecs    float64
	Reason      string
}

// Selection is the explainable output of the auto target's search: the
// chosen shape, its predicted cost from a fresh register (the candidate's
// score less what its product prefix fill saves), every candidate's score,
// and the per-region verdicts applied during compilation.
type Selection struct {
	Chosen Target
	Cost   float64
	// PrefixSaving is what the product prefix fill takes off the chosen
	// candidate's score in Cost (priceFill).
	PrefixSaving float64
	Candidates   []Candidate
	Verdicts     []RegionVerdict
}

// SelectTarget scores the candidate shapes for p under the measured
// model m and picks the cheapest. Candidates are evaluated in a fixed
// order (fused by ascending width, then cluster) and ties go to the
// earlier entry, so selection is deterministic; ascending width first
// means a wider fusion block must strictly win to be chosen. A fused
// rung w > 1 competes only where 2w ≤ n — its block matrix no larger
// than the state; a wider one is listed at +Inf with the note "block
// matrix outgrows the register".
func SelectTarget(p *Profile, m perfmodel.Measured) Selection {
	n := p.NumQubits
	fitsLocal := n <= DefaultAutoMaxLocalQubits

	var cands []Candidate

	// Fused engine, one candidate per fusion width. Each width prices the
	// residual gate segments at that width plus, per recognised region,
	// the cheaper of emulating it and fusing its gates. A rung whose
	// 2^w×2^w block would hold more entries than the 2^n state (2w > n,
	// autoWidthFits) is listed at +Inf with a note, like the cluster on a
	// register that fits one node.
	for i, w := range AutoFuseWidths {
		t := Target{NumQubits: n, Kind: Fused, FuseWidth: w, Emulate: recognize.Auto}
		c := Candidate{Target: t}
		switch {
		case !fitsLocal:
			c.Cost = math.Inf(1)
			c.Note = "exceeds the single-node capacity budget"
		case !autoWidthFits(w, n):
			c.Cost = math.Inf(1)
			c.Note = "block matrix outgrows the register"
		default:
			c.Cost = fusedCost(p, m, i, false)
		}
		cands = append(cands, c)
	}

	// Distributed engine: node count is the capacity policy (smallest
	// power of two keeping every shard within the budget), fusion width
	// the best fused width clamped to the shard. It only enters the race
	// when the register exceeds one node — in-process emulation of more
	// nodes conserves total work, so sharding a register that fits is
	// pure overhead.
	clusterCand := Candidate{Target: Target{NumQubits: n, Kind: Cluster, Nodes: 2}}
	if fitsLocal {
		clusterCand.Cost = math.Inf(1)
		clusterCand.Note = "register fits a single node"
	} else {
		nodes := 1
		for n-nodeBits(nodes) > DefaultAutoMaxLocalQubits {
			nodes *= 2
		}
		local := n - nodeBits(nodes)
		wi := bestClusterWidth(local)
		clusterCand.Target = Target{NumQubits: n, Kind: Cluster, Nodes: nodes,
			FuseWidth: AutoFuseWidths[wi], Emulate: recognize.Auto}
		clusterCand.Cost = fusedCost(p, m, wi, true) +
			float64(estimateClusterRounds(p, clusterCand.Target))*m.RemapSecs(n)
	}
	cands = append(cands, clusterCand)

	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Cost < cands[best].Cost {
			best = i
		}
	}

	return Selection{Chosen: cands[best].Target, Cost: cands[best].Cost, Candidates: cands,
		Verdicts: verdicts(p, m, widthIndex(cands[best].Target.FuseWidth))}
}

// priceFill takes off the selection's predicted cost what a fresh run of
// the compiled executable saves by filling its product prefix instead of
// running its span: the units the prefix takes off the span's gate
// segments and the modelled cost of every op it absorbed, less the fill,
// when the fill is the cheaper. Selection.Cost is then the prediction for
// a run from |0...0>. The candidates were ranked without it, so the
// choice — and every artifact — is the one the ranking made before the
// prefix existed.
func (s *Selection) priceFill(x *Executable, m perfmodel.Measured) {
	p := x.prefix()
	if p == nil {
		return
	}
	saving := m.SweepSecs(p.Units, x.NumQubits) - m.FillSecs(p.Fill.Qubits())
	for _, u := range x.Units[:p.End] {
		if u.Op == nil {
			continue
		}
		for _, v := range s.Verdicts {
			if v.Lo == u.Lo && v.Hi == u.Hi {
				saving += v.EmulateSecs
			}
		}
	}
	s.PrefixSaving = max(saving, 0)
	s.Cost -= s.PrefixSaving
}

// widthIndex maps a fusion width back to its AutoFuseWidths slot.
func widthIndex(w int) int {
	for i, cw := range AutoFuseWidths {
		if cw == w {
			return i
		}
	}
	// A clamped cluster width may fall between ladder rungs; price it at
	// the widest rung not exceeding it.
	best := 0
	for i, cw := range AutoFuseWidths {
		if cw <= w {
			best = i
		}
	}
	return best
}

// bestClusterWidth picks the fused-width ladder index for a shard of
// `local` qubits: the widest rung that fits the shard (block fusion
// cannot span the node cut).
func bestClusterWidth(local uint) int {
	best := 0
	for i, w := range AutoFuseWidths {
		if uint(w) <= local {
			best = i
		}
	}
	return best
}

// fusedCost prices the fused engine at width index wi: residual gate
// segments at that width plus each region at the cheaper of its two
// implementations. onCluster adds the distributed engine's bookkeeping
// factor (shard boundaries fragment fusion blocks and every sweep pays
// the exchange-buffer indirection).
func fusedCost(p *Profile, m perfmodel.Measured, wi int, onCluster bool) float64 {
	cost := m.SweepSecs(p.ResidualUnits[wi], p.NumQubits)
	for i := range p.Regions {
		emu, gate := regionCosts(p, m, &p.Regions[i], wi)
		cost += math.Min(emu, gate)
	}
	if onCluster {
		cost *= 1.15
	}
	return cost
}

// regionCosts returns the modelled cost of emulating a recognised region
// and of running its gates fused at width index wi.
func regionCosts(p *Profile, m perfmodel.Measured, r *RegionProfile, wi int) (emu, gate float64) {
	n := p.NumQubits
	switch r.Kind {
	case "qft":
		q, _ := r.Op.QFT()
		emu = m.FFTSecs(n, q.Width)
	case "add", "sub", "addc", "mul", "div":
		emu = m.PermSecs(n)
	case "diagonal", "phaseflip":
		emu = m.DiagSecs(n)
	case "reflect":
		emu = 2 * m.DiagSecs(n)
	default:
		emu = m.PermSecs(n)
	}
	return emu, m.SweepSecs(r.GateUnits[wi], n)
}

// PredictedRounds is the planning estimate of communication rounds a
// profiled circuit costs on target t: zero for single-node targets, the
// coarse all-to-all estimate for clusters. It is the number the static
// resource estimator (internal/circvet) reports before anything is
// compiled or run.
func PredictedRounds(p *Profile, t Target) int {
	if t.Nodes <= 1 {
		return 0
	}
	return estimateClusterRounds(p, t)
}

// estimateClusterRounds is a coarse planning estimate of the all-to-all
// rounds a cluster run pays: one canonicalization, the collective rounds
// of each emulated region, and a placement remap per shard-width run of
// branching residual gates. A Fourier region is priced by its lowering:
// one remap for a field that fits a shard, two for a wider one, which
// leaves its output order to the next canonicalization. It is
// independent of the fusion width, so it never tips the choice between
// cluster shapes — it exists to keep the cluster candidate's absolute
// cost honest in the report.
func estimateClusterRounds(p *Profile, t Target) int {
	local := t.LocalQubits()
	rounds := 1
	for i := range p.Regions {
		r := &p.Regions[i]
		switch r.Kind {
		case "qft":
			switch sub, _ := cluster.Lowerable(r.Op, p.NumQubits, local, t.Nodes); sub {
			case cluster.SubstrateLocalFFT:
				rounds++
			case cluster.SubstrateFourStepFFT, cluster.SubstrateFieldFFT:
				rounds += 2
			}
		case "add", "sub", "addc", "mul", "div":
			rounds += 1 // one all-to-all basis permutation
		}
	}
	if local > 0 {
		rounds += p.BranchGates / int(local)
	}
	return rounds
}

// verdicts computes the per-region emulate-vs-fuse decisions at width
// index wi — the model-driven replacement for the static diagonal
// cutoff.
func verdicts(p *Profile, m perfmodel.Measured, wi int) []RegionVerdict {
	out := make([]RegionVerdict, 0, len(p.Regions))
	for i := range p.Regions {
		r := &p.Regions[i]
		emu, gate := regionCosts(p, m, r, wi)
		v := RegionVerdict{Kind: r.Kind, Lo: r.Lo, Hi: r.Hi,
			Emulate: emu < gate, EmulateSecs: emu, GateSecs: gate}
		if v.Emulate {
			v.Reason = fmt.Sprintf("emulate: %s vs %s fused", fmtSecs(emu), fmtSecs(gate))
		} else {
			v.Reason = fmt.Sprintf("fuse: %s vs %s emulated", fmtSecs(gate), fmtSecs(emu))
		}
		out = append(out, v)
	}
	return out
}

// fmtSecs renders a modelled cost at report precision.
func fmtSecs(s float64) string {
	switch {
	case math.IsInf(s, 1):
		return "inf"
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.2fµs", s*1e6)
	default:
		return fmt.Sprintf("%.0fns", s*1e9)
	}
}

// DescribeTarget renders a target in the selection report's compact form
// ("fused w=4", "cluster p=8 w=4", "generic"); the static resource
// estimator (internal/circvet) and its CLI reuse it.
func DescribeTarget(t Target) string { return describeTarget(t) }

// describeTarget renders a target for the selection report. Nodes names
// the engine's shape, whichever Kind spells it: one node is "fused", more
// are "cluster".
func describeTarget(t Target) string {
	switch {
	case t.Kind == Generic:
		return t.Kind.String()
	case t.Nodes > 1:
		return fmt.Sprintf("cluster p=%d w=%d", t.Nodes, t.FuseWidth)
	default:
		return fmt.Sprintf("fused w=%d", t.FuseWidth)
	}
}

// Report renders the full selection for humans: the chosen target, every
// candidate's predicted cost, and the per-region verdicts. qemu-run
// prints this verbatim for auto targets.
func (s *Selection) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "auto backend: chose %s (predicted %s", describeTarget(s.Chosen), fmtSecs(s.Cost))
	if s.PrefixSaving > 0 {
		fmt.Fprintf(&b, " from |0...0>, %s under its score: the product prefix fills", fmtSecs(s.PrefixSaving))
	}
	b.WriteString(")\n")
	b.WriteString("  candidates:\n")
	for _, c := range s.Candidates {
		fmt.Fprintf(&b, "    %-16s %10s", describeTarget(c.Target), fmtSecs(c.Cost))
		if c.Note != "" {
			fmt.Fprintf(&b, "  (%s)", c.Note)
		}
		b.WriteByte('\n')
	}
	if len(s.Verdicts) > 0 {
		b.WriteString("  regions:\n")
		for _, v := range s.Verdicts {
			fmt.Fprintf(&b, "    %-10s [%d,%d)  %s\n", v.Kind, v.Lo, v.Hi, v.Reason)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
