// Package qpe implements the emulated quantum phase estimation of the
// paper's Section 3.3 (emulated.go): the dense operator of a circuit, its
// repeated squares or its eigendecomposition, and the exact readout
// distribution. Table 2 times those steps against one gate-level
// application of the circuit, and prices the simulator's 2^b - 1
// applications through perfmodel.QPECosts. InverseQFTOn builds the
// gate-level inverse QFT that a coherent QPE circuit ends with.
package qpe

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// InverseQFTOn builds the inverse QFT circuit acting on the qubit field
// [base, base+b) of a width-total register. The circuit carries the
// field's "iqft" region annotation (inherited through Dagger), so an
// emulating backend lowers it to the FFT.
func InverseQFTOn(base, b, total uint) *circuit.Circuit {
	c := circuit.New(total)
	// Forward QFT on the field, then dagger the whole thing.
	fw := circuit.New(total)
	for i := int(b) - 1; i >= 0; i-- {
		fw.Append(gates.H(base + uint(i)))
		for j := i - 1; j >= 0; j-- {
			theta := math.Pi / float64(uint64(1)<<uint(i-j))
			fw.Append(gates.CR(base+uint(j), base+uint(i), theta))
		}
	}
	for k := uint(0); k < b/2; k++ {
		fw.Append(gates.Swap(base+k, base+b-1-k)...)
	}
	fw.Annotate(circuit.Region{Name: "qft", Args: []uint64{uint64(base), uint64(b)},
		Lo: 0, Hi: fw.Len()})
	c.Extend(fw.Dagger())
	return c
}
