package circvet

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/perfmodel"
)

// The static resource estimator answers "what will this circuit cost?"
// without compiling or running it: dense state-vector footprint, depth,
// gate mix, the regions the emulation dispatcher would shortcut, and the
// cost model's verdict — predicted wall time, fused sweep
// units, and communication rounds on the shape the auto selector would
// pick. It is a read-only drive of the same profile and selection passes
// Compile uses (backend.ProfileCircuit, backend.SelectTarget under
// perfmodel.Active()), so the estimate and the compiler never disagree.

// Resources is the static cost picture of one circuit.
type Resources struct {
	NumQubits uint `json:"num_qubits"`
	NumGates  int  `json:"num_gates"`
	// Depth is the as-soon-as-possible circuit depth.
	Depth int `json:"depth"`
	// StateBytes is the dense state vector's memory footprint, 16·2^n
	// (saturated at MaxUint64 past 2^60 — unrunnable either way).
	StateBytes uint64 `json:"state_bytes"`
	// DiagGates and BranchGates split the gate mix into phase-only and
	// amplitude-spreading gates — the profile features that drive
	// backend selection.
	DiagGates   int `json:"diag_gates"`
	BranchGates int `json:"branch_gates"`
	// Regions lists the ranges the emulation dispatcher would replace
	// with classical shortcuts; RecognizedGates is their total coverage.
	Regions         []RegionSummary `json:"regions,omitempty"`
	RecognizedGates int             `json:"recognized_gates"`
	// Chosen describes the target the auto selector picks,
	// PredictedSecs its modelled wall time.
	Chosen        string  `json:"chosen"`
	PredictedSecs float64 `json:"predicted_secs"`
	// SweepUnits is fuse's sweep-unit estimate of the residual (non-
	// emulated) gates at the chosen fusion width — the work the fused
	// kernels actually execute. PredictedRounds is the communication
	// round estimate on the chosen shape (0 off-cluster).
	SweepUnits      float64 `json:"sweep_units"`
	PredictedRounds int     `json:"predicted_rounds"`
}

// RegionSummary is one recognised region of the estimate.
type RegionSummary struct {
	Kind         string `json:"kind"`
	Lo           int    `json:"lo"`
	Hi           int    `json:"hi"`
	SupportWidth uint   `json:"support_width"`
}

// EstimateResources profiles c and prices it under the cost model
// without compiling or running anything.
func EstimateResources(c *circuit.Circuit) Resources {
	prof, _ := backend.ProfileCircuit(c)
	sel := backend.SelectTarget(prof, perfmodel.Active())
	r := Resources{
		NumQubits:       prof.NumQubits,
		NumGates:        prof.NumGates,
		Depth:           prof.Depth,
		StateBytes:      stateBytes(prof.NumQubits),
		DiagGates:       prof.DiagGates,
		BranchGates:     prof.BranchGates,
		RecognizedGates: prof.RecognizedGates,
		Chosen:          backend.DescribeTarget(sel.Chosen),
		PredictedSecs:   sel.Cost,
		SweepUnits:      prof.GateByGateUnits,
		PredictedRounds: backend.PredictedRounds(prof, sel.Chosen),
	}
	for i := range prof.Regions {
		reg := &prof.Regions[i]
		r.Regions = append(r.Regions, RegionSummary{
			Kind: reg.Kind, Lo: reg.Lo, Hi: reg.Hi, SupportWidth: reg.SupportWidth,
		})
	}
	// Residual sweep units at the chosen fusion width, where one applies.
	for i, w := range backend.AutoFuseWidths {
		if w == sel.Chosen.FuseWidth && i < len(prof.ResidualUnits) {
			r.SweepUnits = prof.ResidualUnits[i]
			break
		}
	}
	return r
}

// stateBytes is the dense state vector footprint 16·2^n, saturated so a
// 64-qubit request reports "more than memory exists" instead of wrapping.
func stateBytes(n uint) uint64 {
	if n >= 60 {
		return math.MaxUint64
	}
	return 16 << n
}

// Report renders the estimate for humans, one fact per line.
func (r Resources) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "qubits %d (state %s), %d gates, depth %d\n",
		r.NumQubits, fmtBytes(r.StateBytes), r.NumGates, r.Depth)
	fmt.Fprintf(&b, "gate mix: %d diagonal, %d branching, %d in recognised regions\n",
		r.DiagGates, r.BranchGates, r.RecognizedGates)
	for _, reg := range r.Regions {
		fmt.Fprintf(&b, "  region %s [%d,%d) on %d qubits\n", reg.Kind, reg.Lo, reg.Hi, reg.SupportWidth)
	}
	fmt.Fprintf(&b, "auto selection: %s, predicted %.3gs, %.3g sweep units, %d comm rounds\n",
		r.Chosen, r.PredictedSecs, r.SweepUnits, r.PredictedRounds)
	return b.String()
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n uint64) string {
	if n == math.MaxUint64 {
		return ">1EiB"
	}
	units := []string{"B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"}
	f, u := float64(n), 0
	for f >= 1024 && u < len(units)-1 {
		f /= 1024
		u++
	}
	return fmt.Sprintf("%.4g%s", f, units[u])
}
