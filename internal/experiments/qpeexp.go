package experiments

import (
	"fmt"

	"repro/internal/ising"
	"repro/internal/linalg"
	"repro/internal/perfmodel"
	"repro/internal/qpe"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// Table2Row is one column of the paper's Table 2: the per-step costs of
// simulated vs emulated QPE on the TFIM Trotter unitary, and the derived
// cross-over precisions.
type Table2Row struct {
	NQubits      uint
	Gates        int
	TApply       float64 // simulator: one application of U to the state
	TConstruct   float64 // build the dense 2^n x 2^n matrix of U
	TGemm        float64 // one dense matrix-matrix product (zgemm)
	TStrassen    float64 // one Strassen product (ablation)
	TEig         float64 // one eigendecomposition (zgeev)
	CrossSq      uint    // cross-over bits, repeated squaring
	CrossEig     uint    // cross-over bits, eigendecomposition
	Extrapolated bool    // true if the dense costs are model-extrapolated
}

// Table2Config bounds the measured sweep; sizes above MaxMeasuredN are
// extrapolated with the measured scaling exponents (the pure-Go eigensolver
// needs hours beyond n=11 where MKL needed minutes).
type Table2Config struct {
	MinN         uint
	MaxMeasuredN uint
	MaxN         uint
}

// DefaultTable2 measures n = 4..9 and extrapolates to the paper's n = 14.
func DefaultTable2() Table2Config { return Table2Config{MinN: 4, MaxMeasuredN: 9, MaxN: 14} }

// Table2 regenerates the paper's Table 2 on the TFIM workload.
func Table2(cfg Table2Config) []Table2Row {
	src := rng.New(2016)
	var rows []Table2Row
	for n := cfg.MinN; n <= cfg.MaxMeasuredN; n++ {
		circ := ising.TrotterStep(n, ising.DefaultParams())
		init := statevec.NewRandom(n, src)
		row := Table2Row{NQubits: n, Gates: circ.Len()}

		row.TApply, _ = timeTarget(circ, oursTarget(n), init)

		var u *linalg.Matrix
		row.TConstruct = timeIt(shortTime, nil, func() {
			u = qpe.DenseUnitary(circ)
		})
		row.TGemm = timeIt(shortTime, nil, func() { _ = u.Mul(u) })
		row.TStrassen = timeIt(shortTime, nil, func() { _ = u.Strassen(u) })
		row.TEig = timeIt(shortTime, nil, func() {
			if _, err := linalg.Eig(u); err != nil {
				panic(err)
			}
		})
		fillCrossOvers(&row)
		rows = append(rows, row)
	}
	// Extrapolate the remaining sizes from the last measured row using the
	// asymptotic exponents: TApply ~ G 2^n, TConstruct/TGemm ~ 2^(2n)/2^(3n),
	// TEig ~ 2^(3n).
	if len(rows) > 0 {
		last := rows[len(rows)-1]
		for n := cfg.MaxMeasuredN + 1; n <= cfg.MaxN; n++ {
			d := n - last.NQubits
			scale := func(perQubit float64) float64 {
				s := 1.0
				for i := uint(0); i < d; i++ {
					s *= perQubit
				}
				return s
			}
			g := ising.GateCount(n)
			row := Table2Row{
				NQubits:      n,
				Gates:        g,
				TApply:       last.TApply * scale(2) * float64(g) / float64(last.Gates),
				TConstruct:   last.TConstruct * scale(4) * float64(g) / float64(last.Gates),
				TGemm:        last.TGemm * scale(8),
				TStrassen:    last.TStrassen * scale(7),
				TEig:         last.TEig * scale(8),
				Extrapolated: true,
			}
			fillCrossOvers(&row)
			rows = append(rows, row)
		}
	}
	return rows
}

func fillCrossOvers(row *Table2Row) {
	costs := perfmodel.QPECosts{
		NQubits:    row.NQubits,
		Gates:      row.Gates,
		TApply:     row.TApply,
		TConstruct: row.TConstruct,
		TGemm:      row.TGemm,
		TEig:       row.TEig,
	}
	row.CrossSq = costs.CrossOverSquaring()
	row.CrossEig = costs.CrossOverEig()
}

// FormatTable2 renders the Table 2 reproduction.
func FormatTable2(rows []Table2Row) string {
	var table [][]string
	for _, r := range rows {
		mark := ""
		if r.Extrapolated {
			mark = "*"
		}
		table = append(table, []string{
			fmt.Sprintf("%d%s", r.NQubits, mark),
			fmt.Sprintf("%d", r.Gates),
			secs(r.TApply),
			secs(r.TConstruct),
			secs(r.TGemm),
			secs(r.TStrassen),
			secs(r.TEig),
			fmt.Sprintf("%d", r.CrossSq),
			fmt.Sprintf("%d", r.CrossEig),
		})
	}
	return "Table 2: QPE on the 1-D transverse-field Ising model (* = extrapolated)\n" +
		Table([]string{"n", "G", oursHeader("T_apply"), "T_construct", "T_gemm", "T_strassen",
			"T_eig", "xover_sq", "xover_eig"}, table)
}

// MeasureRow is the Section 3.4 ablation: exact expectation vs sampled
// estimation of a diagonal observable.
type MeasureRow struct {
	Qubits  uint
	Shots   int
	TExact  float64
	TSample float64
	Error   float64 // |sampled - exact|
}

// Measure34 quantifies the measurement shortcut: one exact pass over the
// state vs `shots`-fold sampling, on a superposition state. The reported
// error is one estimate drawn from its own seeded stream outside the timed
// loop, so it does not depend on how many repetitions the timing ran.
func Measure34(n uint, shotsList []int) []MeasureRow {
	src := rng.New(34)
	st := statevec.NewRandom(n, src)
	obs := func(i uint64) float64 { return float64(i % 7) }
	var rows []MeasureRow
	exact := st.ExpectationDiagonal(obs)
	tExact := timeIt(shortTime, nil, func() { _ = st.ExpectationDiagonal(obs) })
	for _, shots := range shotsList {
		row := MeasureRow{Qubits: n, Shots: shots, TExact: tExact}
		row.TSample = timeIt(shortTime, nil, func() {
			_, _ = st.EstimateDiagonal(obs, shots, src)
		})
		est, _ := st.EstimateDiagonal(obs, shots, rng.New(34<<20+uint64(shots)))
		if est > exact {
			row.Error = est - exact
		} else {
			row.Error = exact - est
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatMeasure renders the Section 3.4 rows.
func FormatMeasure(rows []MeasureRow) string {
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			fmt.Sprintf("%d", r.Qubits),
			fmt.Sprintf("%d", r.Shots),
			secs(r.TExact),
			secs(r.TSample),
			fmt.Sprintf("%.2e", r.Error),
		})
	}
	return "Section 3.4: exact expectation (one pass) vs hardware-style sampling\n" +
		Table([]string{"qubits", "shots", "t_exact", "t_sample", "|error|"}, table)
}
