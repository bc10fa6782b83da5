package experiments

import (
	"fmt"
	"math"

	"repro/internal/gates"
	"repro/internal/statevec"
)

// MathFuncRow is one point of the Section 3.1 extension: emulating a
// fixed-point mathematical function. The paper argues simulation is not
// just slow but *infeasible* here — every intermediate value of a series
// expansion needs its own m-qubit work register, at 2^m memory each — so
// the row carries an estimated simulation footprint instead of a measured
// simulation time.
type MathFuncRow struct {
	M         uint    // fixed-point bits
	NQubits   uint    // emulator register: input + output
	TEmu      float64 // seconds per emulated evaluation on the full state
	SimQubits uint    // estimated qubits a simulator would need
	SimMemory float64 // bytes for the simulator's state vector
}

// MathFunc emulates |a>|c> -> |a>|c XOR sin(a)| on superposed input for a
// range of fixed-point widths, where sin is evaluated in m-bit fixed point
// over [0, 2 pi). No circuit stands behind the function, so nothing is
// compiled: the timed call is statevec.ApplyPermutation with the oracle's
// closure, the raw kernel a recognised op falls back to. The simulator
// estimate assumes a CORDIC-style reversible evaluation with ~2m
// intermediate registers (rotation accumulators), i.e. 2m + 2m*m qubits
// total.
func MathFunc(minM, maxM uint) []MathFuncRow {
	var rows []MathFuncRow
	for m := minM; m <= maxM; m++ {
		n := 2 * m
		st := statevec.New(n)
		for q := uint(0); q < m; q++ {
			st.ApplyGate(gates.H(q))
		}
		scale := float64(uint64(1) << m)
		mask := uint64(1)<<m - 1
		// The out-of-place oracle: a in the low field, sin(a) XORed into
		// the high one — a permutation although sin is not invertible.
		oracle := func(i uint64) uint64 {
			x := 2 * math.Pi * float64(i&mask) / scale
			// sin in [-1,1] mapped to m-bit two's-complement-ish fixed point.
			return i ^ (uint64(int64(math.Sin(x)*(scale/2-1)))&mask)<<m
		}
		row := MathFuncRow{M: m, NQubits: n}
		row.TEmu = timeIt(shortTime, nil, func() {
			st.ApplyPermutation(oracle)
			st.ApplyPermutation(oracle) // uncompute to keep state reusable
		})
		row.TEmu /= 2 // per single application
		row.SimQubits = 2*m + 2*m*m
		row.SimMemory = math.Pow(2, float64(row.SimQubits)) * 16
		rows = append(rows, row)
	}
	return rows
}

// FormatMathFunc renders the extension table.
func FormatMathFunc(rows []MathFuncRow) string {
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			fmt.Sprintf("%d", r.M),
			fmt.Sprintf("%d", r.NQubits),
			secs(r.TEmu),
			fmt.Sprintf("%d", r.SimQubits),
			humanBytes(r.SimMemory),
		})
	}
	return "Section 3.1 extension: emulated fixed-point sin(x) oracle\n" +
		"(simulation columns are the estimated footprint of a reversible CORDIC circuit)\n" +
		Table([]string{"m bits", "emu qubits", "t_emu", "sim qubits (est)", "sim memory (est)"},
			table)
}

func humanBytes(b float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"}
	i := 0
	for b >= 1024 && i < len(units)-1 {
		b /= 1024
		i++
	}
	if b > 1e6 {
		return fmt.Sprintf("%.2e %s", b, units[i])
	}
	return fmt.Sprintf("%.1f %s", b, units[i])
}
