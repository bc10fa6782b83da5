// Package recognize is the emulation-dispatch layer of the paper's
// Section 3: it scans a gate-level circuit for whole subroutines the
// emulator can replace with classical shortcuts — the quantum Fourier
// transform becomes an FFT, reversible arithmetic becomes a basis-state
// permutation, phase oracles become diagonal multiplies — and produces an
// execution plan interleaving those shortcuts with the gate ranges that
// stay on the simulator's fused kernel path.
//
// Subroutines are found two ways:
//
//   - Annotations. Builders that know what they emit (internal/qft,
//     internal/revlib, the grover-style experiment circuits) mark gate
//     ranges with circuit.Region; the qasm frontend exposes the same
//     markers as `region NAME args...` / `endregion` lines. Annotated
//     regions are trusted (and still cross-checked against the region's
//     own gates when the support is small enough to afford it).
//   - Pattern matching. Unannotated gate runs are matched structurally:
//     QFT/inverse-QFT ladders of H + controlled-phase gates (with or
//     without the final reversal swaps), Cuccaro adder and shift-and-add
//     multiplier shapes from internal/revlib (validated by regenerating
//     the reference circuit and comparing gate for gate), X-conjugated
//     multi-controlled-Z phase flips, and runs of diagonal gates.
//
// Every recognised region with at most Options.MaxVerifyQubits of support
// is verified against the brute-force unitary of its own gates; a
// mismatch drops the region back to gate-level execution, so a wrong
// match can cost performance but never correctness. Larger regions are
// accepted on the strength of the exact structural match (or, for
// annotations, trusted as asserted — an annotation that lies about a
// large region is the caller's bug, like any wrong argument).
//
// # Region vocabulary
//
// The Name/Args layouts understood by this package (all argument values
// are qubit indices unless stated otherwise):
//
//	qft pos width          exact QFT (paper Eq. 4) on field [pos, pos+width)
//	iqft pos width         its inverse
//	qft-noswap pos width   QFT composed with the field bit reversal
//	iqft-noswap pos width  its inverse
//	add w a*w b*w carry    b += a + carry (mod 2^w), Cuccaro semantics
//	sub w a*w b*w carry    b -= a + carry (mod 2^w)
//	mul m a*m b*m c*m carry   shift-and-add product: for each set bit k of
//	                       a, the top m-k bits of c gain b's low m-k bits
//	                       plus carry (revlib.Multiplier's exact action)
//	div m r*2m b*m q*m bz carry   revlib.Divider's restoring division
//	phaseflip w q*w value  flip the sign of states whose w listed qubits
//	                       read the w-bit pattern `value`
//	reflect-uniform w q*w  the Householder reflection I - 2|s><s| about
//	                       the uniform state (Grover's diffusion); must
//	                       span the full register
//
// The arithmetic semantics include the carry ancilla so the shortcut is
// the exact permutation the gate network implements on every basis state,
// dirty ancillas included.
package recognize
