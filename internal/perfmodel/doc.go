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
// # Calibrated mode (this machine's kernels)
//
// Measured holds per-amplitude costs in nanoseconds of the repository's
// own kernels — dense sweep, diagonal sweep, permutation, FFT butterfly
// level, cluster all-to-all — in
// the sweep-unit convention of internal/fuse (SweepNs prices fuse's 1.0).
// It is what the profile-driven backend selector (internal/backend)
// scores candidate targets with: seconds here mean seconds on THIS
// machine. Measured.TQFT/TFFT mirror Eqs. 6/5 in calibrated form, which
// `qemu-model` prints next to the analytic predictions.
//
// # Calibration cache
//
// Constants come from one run of micro-benchmarks over the live kernels
// (Calibrate, about a second at 2^18 amplitudes), cached as JSON at
// $QEMU_CALIBRATION_FILE or <user cache dir>/qemu-repro/calibration.json.
// Active() — the selector's entry point — loads the cache or falls back
// to the baked-in Default() constants; it never times anything itself,
// keeping backend selection deterministic and inside the detrng contract
// (wall-clock reads are confined to this package). To (re-)calibrate:
//
//	qemu-model -calibrate            # measure, print, and cache
//	rm "$(qemu-model -calibration-path)"   # or just delete the cache
//
// CI runs the calibration smoke step headlessly with
// QEMU_CALIBRATION_FILE pointed into the workspace.
package perfmodel
