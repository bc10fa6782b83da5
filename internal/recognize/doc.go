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
//     markers as `region NAME args...` / `endregion` lines. An
//     annotation is checked against the region's own gates like any
//     match (below).
//   - Pattern matching. Unannotated gate runs are matched structurally:
//     QFT/inverse-QFT ladders of H + controlled-phase gates (with or
//     without the final reversal swaps), Cuccaro adder and shift-and-add
//     multiplier shapes from internal/revlib (validated by regenerating
//     the reference circuit and comparing gate for gate), X-conjugated
//     multi-controlled-Z phase flips, and runs of diagonal gates.
//
// Every recognised region is checked against its own gates on the first
// of three rungs that applies (Analyze):
//
//  1. Identity, at any width. The gates are, gate for gate at the
//     matchers' 1e-12 entry tolerance, the reference network the op
//     names: one of the qft package's four Fourier shapes, generated in
//     closed form without allocating, or the revlib network of an add,
//     sub, addc, mul or div, regenerated by its builder
//     (matchesReference). A QFT, adder, carry-out adder or multiplier the
//     matchers found has it already: the matcher compared its whole range
//     with that network, through the same comparator for the QFT.
//  2. The column walk, up to MaxVerifyQubits of support. For each
//     of the 2^w basis inputs, every amplitude of the shortcut's output
//     must be within 1e-10 of the gates' column (a NaN fails). It settles
//     what has no identity: diagonal runs, phase flips, reflections, a
//     daggered adder, an annotation whose gates are not its network.
//  3. Unverified. A wider region without identity is kept as recognised,
//     its Verified flag unset. A lying annotation wider than
//     MaxVerifyQubits still compiles to a wrong op; ROADMAP items 10(b)
//     and 10(c) are to check it.
//
// A diagonal or anti-diagonal gate moves or rephases a basis state, it
// does not split it, and the column walk uses that twice:
//
//   - The arithmetic, phase-flip and diagonal families map each basis
//     state to one phased basis state. While the region's gates do too, a
//     column is one index and one phase, walked at O(gates) with no 2^w
//     state and compared with the op's image of the input.
//   - A QFT, a reflection, or a basis-map region whose gates branch a
//     column pays the dense column: the shortcut applied to a 2^w state,
//     the column walked through only the qubits the gates have branched,
//     and a 2^w compare — O(4^w) over all columns.
//
// Analyze checks each distinct region once: a region whose op and gates,
// rewritten onto the compact register of its support, equal an earlier
// region's bit for bit takes that region's verdict. A mismatch drops the
// region back to gate-level execution, so a wrong match can cost
// performance but never correctness.
//
// # Region vocabulary
//
// The Name/Args layouts understood by this package (all argument values
// are qubit indices unless stated otherwise). The table is also the op
// payload of a compiled artifact: an op is written as its region form
// (Op.Region) and read back through the same parser that lowers a
// circuit's annotations, which checks every width against the register
// before any arithmetic on it, so a hostile argument is a skipped region
// or a decode error, never a panic:
//
//	qft pos width          exact QFT (paper Eq. 4) on field [pos, pos+width)
//	iqft pos width         its inverse
//	qft-noswap pos width   QFT composed with the field bit reversal
//	iqft-noswap pos width  its inverse
//	add w a*w b*w carry    b += a + carry (mod 2^w), Cuccaro semantics
//	sub w a*w b*w carry    b -= a + carry (mod 2^w)
//	addc w a*w b*w carry cout   b += a + carry (mod 2^w), the carry out
//	                       of the top bit XORed into cout
//	mul m a*m b*m c*m carry   shift-and-add product: for each set bit k of
//	                       a, the top m-k bits of c gain b's low m-k bits
//	                       plus carry (revlib.Multiplier's exact action)
//	div m r*2m b*m q*m bz carry   revlib.Divider's restoring division
//	phaseflip w q*w value  flip the sign of states whose w listed qubits
//	                       read the w-bit pattern `value`
//	reflect-uniform w q*w  the Householder reflection I - 2|s><s| about
//	                       the uniform state (Grover's diffusion); must
//	                       span the full register
//	diagonal w q*w         wire only, with its 2^w-entry table: a matched
//	                       run of diagonal gates, q ascending, bit j of a
//	                       table index reading q[j]; a circuit cannot
//	                       annotate one (it carries no table)
//
// The arithmetic semantics include the carry ancilla so the shortcut is
// the exact permutation the gate network implements on every basis state,
// dirty ancillas included.
package recognize
