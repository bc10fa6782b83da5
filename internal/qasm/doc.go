// Package qasm implements a minimal text format for quantum circuits so
// external tools (and the qemu-run command) can execute circuits against
// any back-end. The grammar is line-oriented:
//
//	qubits 5          # register width, must appear first
//	h 0               # gate name, then target qubit
//	x 3
//	rz 2 1.5708       # rotation gates take an angle (radians)
//	cnot 0 1          # control, target
//	cr 0 1 0.785      # control, target, angle
//	toffoli 0 1 2     # control, control, target
//	ctrl 3 4 : h 0    # arbitrary extra controls before any gate
//	region qft 0 5    # annotate the enclosed gates as a subroutine
//	...               # (name + integer args; see internal/recognize)
//	endregion
//	# comments and blank lines are ignored
//
// Angles accept plain floats or the forms pi, pi/N and -pi/N, with at
// most one leading sign.
//
// region/endregion pairs mark the enclosed gates as a named subroutine
// (circuit.Region); the emulation dispatcher of internal/recognize lowers
// recognised names (qft, add, mul, div, phaseflip, reflect-uniform, ...)
// to classical shortcuts when Target.Emulate is on. Unknown names
// are carried along untouched. Regions cannot nest.
//
// Parse is the only entry point: it reads a description from an io.Reader
// and returns a *circuit.Circuit ready for any Runner — the optimised
// simulator, the baselines, or the emulator. The frontend is hardened
// against malformed input: every error (missing arguments, out-of-range
// or duplicated qubits, control == target, stacked angle signs,
// non-finite angles, unbalanced regions) is reported as a `qasm: line N:`
// error and never as a panic — the FuzzParse target enforces exactly that
// contract. Write serialises a circuit (regions included) such that
// Parse∘Write is the identity on behaviour; every matrix Parse can
// produce, rotations included, has a textual form. The format is
// deliberately smaller than OpenQASM: just enough to express the paper's
// Table 1 gate set plus multi-controls, so test fixtures stay readable
// and hand-writable.
package qasm
