// Package circvet is the static-analysis suite for the circuit IR and
// its compiled artifacts: qemu-vet's engine, the way internal/lint is
// qemu-lint's.
//
// Where internal/lint inspects the simulator's *source code*, circvet
// inspects the *programs the simulator runs*: circuit.Circuit values
// (usually parsed from qasm) and, through backend.VerifyExecutable, the
// .qexe artifacts compiled from them. Its diagnostic passes exploit the
// two facts every circuit here shares — execution starts from |0…0⟩ and
// ends in terminal Z-basis sampling — to prove gates inert rather than
// merely flag them as suspicious:
//
//   - liveness: forward dataflow from |0…0⟩ — unused declared qubits,
//     controls stuck at |0⟩, gates nothing can observe, global phases.
//   - deadgate: backward dataflow from the terminal measurement —
//     diagonal phases no later basis-mixing gate turns into
//     interference.
//   - uncompute: classical (bit-flip) runs simulated as bit
//     permutations over every input assignment, proving ancillas return
//     to |0⟩ before reuse.
//   - regioncheck: region annotations validated against the emulation
//     catalogue (names, arity, register layout, unitary verification),
//     surfacing what run time would silently demote to gate level.
//   - noisecheck: the attached noise model audited — channel
//     probabilities in range, attachments pointing at gates and qubits
//     the circuit has, and damping channels on qubits later gates
//     reuse (damping is a partial measurement; the reuse reads damaged
//     state).
//
// EstimateResources complements the passes with the static cost picture:
// state bytes, depth, gate mix, and the cost model's predicted
// target, wall time, sweep units and communication rounds.
//
// The Analyzer/Pass/Finding shape deliberately mirrors
// internal/lint/analysis so drivers and fixtures work the same way in
// both suites; findings anchor to gate, region or noise-model indices,
// which the qasm frontend's SourceMap resolves back to file:line.
package circvet
