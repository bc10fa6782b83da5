// Package qpe implements the emulated quantum phase estimation of the
// paper's Section 3.3 (emulated.go): the dense operator of a circuit, its
// repeated squares or its eigendecomposition, and the exact readout
// distribution. Table 2 times those steps against one gate-level
// application of the circuit, and prices the simulator's 2^b - 1
// applications through perfmodel.QPECosts. InverseQFTOn builds the
// gate-level inverse QFT that a coherent QPE circuit ends with.
package qpe

import (
	"repro/internal/circuit"
	"repro/internal/qft"
)

// InverseQFTOn builds the inverse QFT circuit acting on the qubit field
// [base, base+b) of a width-total register. The circuit carries the
// field's "iqft" region annotation (inherited through Dagger), so an
// emulating backend lowers it to the FFT.
func InverseQFTOn(base, b, total uint) *circuit.Circuit {
	return qft.Field(total, base, b, true).Dagger()
}
