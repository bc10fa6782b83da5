package circvet

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qasm"
)

// Analyzer is one diagnostic pass over a circuit. The shape deliberately
// mirrors internal/lint/analysis: a named, documented Run function
// reporting findings through its Pass, so the driver (cmd/qemu-vet) can
// select, list and document passes uniformly.
type Analyzer struct {
	// Name identifies the pass in findings and on the command line.
	Name string
	// Doc is a one-paragraph description; the first line is the summary.
	Doc string
	// Run executes the pass. Findings go through the Pass; the error
	// return is for analysis failure (could not run), not for findings.
	Run func(*Pass) error
}

// Pass carries one analyzer's execution over one circuit.
type Pass struct {
	Analyzer *Analyzer
	Circuit  *circuit.Circuit
	report   func(Finding)
}

// Finding is one diagnostic: an analyzer's message anchored to a gate, a
// region annotation, or the circuit as a whole.
type Finding struct {
	// Analyzer names the pass that produced the finding.
	Analyzer string
	// File and Line locate the finding in the circuit's source text when
	// a source map was provided; Line is 0 otherwise.
	File string
	Line int
	// Gate is the gate index the finding anchors to, -1 when it anchors
	// to a region or the whole circuit. Region likewise (-1 when not
	// region-anchored). GlobalNoise and GateNoise anchor to entries of
	// the circuit's noise model (indices into NoiseModel.Global and
	// NoiseModel.PerGate), -1 otherwise.
	Gate        int
	Region      int
	GlobalNoise int
	GateNoise   int
	// Message is the human-readable diagnostic.
	Message string
}

func (f Finding) String() string {
	switch {
	case f.Line > 0:
		return fmt.Sprintf("%s:%d: %s (%s)", f.File, f.Line, f.Message, f.Analyzer)
	case f.File != "":
		return fmt.Sprintf("%s: %s (%s)", f.File, f.Message, f.Analyzer)
	default:
		return fmt.Sprintf("%s (%s)", f.Message, f.Analyzer)
	}
}

// ReportGate reports a finding anchored to gate index gate.
func (p *Pass) ReportGate(gate int, format string, args ...any) {
	p.report(Finding{Analyzer: p.Analyzer.Name, Gate: gate, Region: -1, GlobalNoise: -1, GateNoise: -1,
		Message: fmt.Sprintf(format, args...)})
}

// ReportRegion reports a finding anchored to region index region.
func (p *Pass) ReportRegion(region int, format string, args ...any) {
	p.report(Finding{Analyzer: p.Analyzer.Name, Gate: -1, Region: region, GlobalNoise: -1, GateNoise: -1,
		Message: fmt.Sprintf(format, args...)})
}

// ReportGlobalNoise reports a finding anchored to entry i of the noise
// model's global channel list.
func (p *Pass) ReportGlobalNoise(i int, format string, args ...any) {
	p.report(Finding{Analyzer: p.Analyzer.Name, Gate: -1, Region: -1, GlobalNoise: i, GateNoise: -1,
		Message: fmt.Sprintf(format, args...)})
}

// ReportGateNoise reports a finding anchored to entry i of the noise
// model's per-gate attachment list.
func (p *Pass) ReportGateNoise(i int, format string, args ...any) {
	p.report(Finding{Analyzer: p.Analyzer.Name, Gate: -1, Region: -1, GlobalNoise: -1, GateNoise: i,
		Message: fmt.Sprintf(format, args...)})
}

// Report reports a circuit-level finding with no gate or region anchor.
func (p *Pass) Report(format string, args ...any) {
	p.report(Finding{Analyzer: p.Analyzer.Name, Gate: -1, Region: -1, GlobalNoise: -1, GateNoise: -1,
		Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns the full diagnostic suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		livenessAnalyzer,
		deadgateAnalyzer,
		uncomputeAnalyzer,
		regioncheckAnalyzer,
		noisecheckAnalyzer,
	}
}

// Run executes the given analyzers over one circuit, naming file in the
// findings and resolving their anchors through sm, and returns the
// findings sorted by line, gate, region, then analyzer. A circuit built
// in code has no source text: pass "" and a nil map, and every finding
// has Line 0. The error return reports an analyzer that failed to run,
// not the presence of findings.
func Run(c *circuit.Circuit, file string, sm *qasm.SourceMap, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		p := &Pass{Analyzer: a, Circuit: c, report: func(f Finding) {
			f.File = file
			switch {
			case f.Gate >= 0:
				f.Line = sm.Line(qasm.AnchorGate, f.Gate)
			case f.Region >= 0:
				f.Line = sm.Line(qasm.AnchorRegion, f.Region)
			case f.GlobalNoise >= 0:
				f.Line = sm.Line(qasm.AnchorGlobalNoise, f.GlobalNoise)
			case f.GateNoise >= 0:
				f.Line = sm.Line(qasm.AnchorGateNoise, f.GateNoise)
			default:
				f.Line = sm.Line(qasm.AnchorGate, -1)
			}
			out = append(out, f)
		}}
		if err := a.Run(p); err != nil {
			return nil, fmt.Errorf("circvet: %s: %w", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Gate != b.Gate {
			return a.Gate < b.Gate
		}
		if a.Region != b.Region {
			return a.Region < b.Region
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, nil
}

// nonzeroPrefix is the shared forward dataflow over the |0…0⟩ initial
// state: prefix[i] is the bitmask of qubits that may differ from |0⟩
// before gate i (length Len()+1, so prefix[Len()] is the final state).
// A gate with a control still |0⟩ can never fire and changes nothing; a
// firing gate makes its target maybe-nonzero exactly when its 2x2 core
// can move amplitude out of |0⟩ (Dense or AntiDiagonal kinds).
func nonzeroPrefix(c *circuit.Circuit) []uint64 {
	prefix := make([]uint64, c.Len()+1)
	cur := uint64(0)
	for i, g := range c.Gates {
		prefix[i] = cur
		if stuckControl(g, cur) < 0 {
			switch g.Kind() {
			case gates.Dense, gates.AntiDiagonal:
				cur |= 1 << g.Target
			}
		}
	}
	prefix[c.Len()] = cur
	return prefix
}

// stuckControl returns a control qubit of g that is definitely |0⟩ under
// the nonzero mask (so g can never fire), or -1 if all controls may be
// set.
func stuckControl(g gates.Gate, nonzero uint64) int {
	for _, ctl := range g.Controls {
		if nonzero&(1<<ctl) == 0 {
			return int(ctl)
		}
	}
	return -1
}

// supportMask returns the bitmask of every qubit the gate touches.
func supportMask(g gates.Gate) uint64 {
	m := uint64(1) << g.Target
	for _, ctl := range g.Controls {
		m |= 1 << ctl
	}
	return m
}
