package experiments

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/recognize"
	"repro/internal/revlib"
	"repro/internal/statevec"
)

// ArithRow is one point of Figure 1 or Figure 2: simulation vs emulation
// time for an m-bit arithmetic operation.
type ArithRow struct {
	M       uint    // operand bits
	NQubits uint    // total register width
	Gates   int     // gate count of the simulated circuit (0 if skipped)
	TSim    float64 // seconds per simulated operation (0 if skipped)
	TEmu    float64 // seconds per emulated operation
	Speedup float64 // TSim/TEmu (0 if simulation skipped)
}

// Fig1Config scopes the multiplication sweep. Simulation cost grows as
// O(m^3 2^(3m)), so MaxSimM stays small; emulation reaches larger m.
type Fig1Config struct {
	MinM    uint
	MaxSimM uint // largest m simulated at gate level
	MaxEmuM uint // largest m emulated (memory bound: 2^(3m+1) amplitudes)
}

// DefaultFig1 keeps the sweep under a minute on a laptop-class machine.
func DefaultFig1() Fig1Config { return Fig1Config{MinM: 2, MaxSimM: 5, MaxEmuM: 8} }

// emulatedTarget is oursTarget with annotated regions dispatched to their
// shortcuts: compiled for it, revlib's multiplier or divider is one op
// unit, the one qemu-run and qemu-serve would execute.
func emulatedTarget(n uint) backend.Target {
	t := oursTarget(n)
	t.Emulate = recognize.Annotated
	return t
}

// prepMulInput loads a uniform superposition over the a and b registers —
// the "all inputs in parallel" workload of Section 3.1.
func prepMulInput(st *statevec.State, m uint) {
	for q := uint(0); q < 2*m; q++ {
		st.ApplyGate(gates.H(q))
	}
}

// arithSweep times one arithmetic circuit family over operand widths
// minM..maxEmuM: the circuit lowered to one- and two-qubit gates (Toffolis
// expanded to the 15-gate Clifford+T network, multi-controls recursively
// lowered — the paper's Section 2 setting, what quantum hardware runs) on
// the simulator up to maxSimM, and its annotated form on the emulating
// target; every run starts from the superposition prep loads.
func arithSweep(minM, maxSimM, maxEmuM uint, build func(m uint) *circuit.Circuit, prep func(st *statevec.State, m uint)) []ArithRow {
	var rows []ArithRow
	for m := minM; m <= maxEmuM; m++ {
		circ := build(m)
		n := circ.NumQubits
		row := ArithRow{M: m, NQubits: n}
		st := statevec.New(n)
		prep(st, m)
		if m <= maxSimM {
			lowered := circ.Lower(1)
			row.Gates = lowered.Len()
			row.TSim, _ = timeTarget(lowered, oursTarget(n), st)
		}
		row.TEmu, _ = timeTarget(circ, emulatedTarget(n), st)
		if row.TSim > 0 {
			row.Speedup = row.TSim / row.TEmu
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig1 runs the multiplication sweep (paper Figure 1): simulate the
// shift-and-add Toffoli network vs emulate the classical multiply.
func Fig1(cfg Fig1Config) []ArithRow {
	return arithSweep(cfg.MinM, cfg.MaxSimM, cfg.MaxEmuM, func(m uint) *circuit.Circuit {
		return revlib.BuildMultiplier(revlib.NewMultiplierLayout(m))
	}, prepMulInput)
}

// Fig2Config scopes the division sweep; the divider needs 4m+2 qubits
// (the extra work qubits of Figure 2), so memory runs out sooner.
type Fig2Config struct {
	MinM    uint
	MaxSimM uint
	MaxEmuM uint
}

// DefaultFig2 mirrors the paper's m <= 7 limit scaled to one process.
func DefaultFig2() Fig2Config { return Fig2Config{MinM: 2, MaxSimM: 4, MaxEmuM: 6} }

// prepDivInput superposes the dividend and divisor registers.
func prepDivInput(st *statevec.State, m uint) {
	for q := uint(0); q < m; q++ {
		st.ApplyGate(gates.H(q)) // low half of R = dividend
	}
	for q := 2 * m; q < 3*m; q++ {
		st.ApplyGate(gates.H(q)) // divisor
	}
}

// Fig2 runs the division sweep (paper Figure 2): restoring-divider circuit
// vs word-level emulation.
func Fig2(cfg Fig2Config) []ArithRow {
	return arithSweep(cfg.MinM, cfg.MaxSimM, cfg.MaxEmuM, func(m uint) *circuit.Circuit {
		return revlib.BuildDivider(revlib.NewDividerLayout(m))
	}, prepDivInput)
}

// FormatArith renders Figure 1/2 rows.
func FormatArith(title string, rows []ArithRow) string {
	out := title + "\n"
	var table [][]string
	for _, r := range rows {
		sim, sp := "-", "-"
		gatesStr := "-"
		if r.TSim > 0 {
			sim = secs(r.TSim)
			sp = fmt.Sprintf("%.0fx", r.Speedup)
			gatesStr = fmt.Sprintf("%d", r.Gates)
		}
		table = append(table, []string{
			fmt.Sprintf("%d", r.M),
			fmt.Sprintf("%d", r.NQubits),
			gatesStr,
			sim,
			secs(r.TEmu),
			sp,
		})
	}
	return out + Table(
		[]string{"m bits", "qubits", "gates", oursHeader("t_sim"), "t_emu", "speedup"},
		table)
}
