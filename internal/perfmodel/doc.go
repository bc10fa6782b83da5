// Package perfmodel is the repository's performance-model layer, in two
// halves the backend selector and the tools consume side by side:
//
// # Analytic mode (the paper's equations)
//
// Machine carries the hardware constants of Eqs. 5 and 6 — per-node flop
// rate, FFT efficiency, memory and network bandwidth — and evaluates them
// at paper scale: TFFT (Eq. 5, the distributed four-step FFT), TQFT
// (Eq. 6, gate-level QFT simulation), WeakScaling along the paper's
// weak-scaling line, and the QPE cross-over predictors of Section 3.3.
// Stampede() returns the TACC Stampede parameters the paper measured on.
// Units: seconds, for an n-qubit register on p nodes of the *modelled*
// machine — these numbers reproduce Figure 3's trend at 28-36 qubits and
// are independent of the box running this code.
//
// # Measured mode (the repository's kernels)
//
// Measured holds per-amplitude costs in nanoseconds of the repository's
// own kernels — dense sweep, diagonal sweep, permutation, FFT butterfly
// level, cluster all-to-all, product fill — in the sweep-unit convention
// of internal/fuse (SweepNs prices fuse's 1.0). It is what the
// profile-driven backend selector (internal/backend) scores candidate
// targets with. Measured.TQFT/TFFT mirror Eqs. 6/5 in measured form, which
// `qemu-model` prints next to the analytic predictions.
//
// Active() — the selector's entry point — returns one baked-in table on
// every host and reads no file, so a selection, and the artifact a
// fingerprint names, depend on the circuit alone. Clock, the one wall
// clock of the deterministic engine packages (the detrng analyzer names
// it), times their reports; nothing here feeds a timing back into a
// selection.
package perfmodel
