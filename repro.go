// Package repro is a high-performance quantum-circuit simulator and
// emulator in pure Go, reproducing Häner, Steiger, Smelyanskiy & Troyer,
// "High Performance Emulation of Quantum Circuits" (SC 2016,
// arXiv:1604.06460).
//
// # The entrypoint
//
// Open is the constructor for every execution engine you configure by
// hand. It takes a Target, the one spelling of an execution shape:
//
//	b, err := repro.Open(repro.Target{NumQubits: n})               // the paper's fused simulator
//	b, err := repro.Open(repro.Target{NumQubits: n, FuseWidth: 4}) // multi-qubit block fusion
//	b, err := repro.Open(repro.Target{NumQubits: n,                // emulation dispatch
//	    Emulate: repro.EmulateAuto})
//	b, err := repro.Open(repro.Target{NumQubits: n, Nodes: 8,      // distributed engine,
//	    Emulate: repro.EmulateAuto})                               //   emulating subroutines
//
// Nodes picks the engine's shape: one node (0 or 1) is the fused
// simulator, more shard the register across that many emulated cluster
// nodes. Workers caps the kernel parallelism (per shard on several
// nodes); 1 forces the single-threaded variants.
//
// The auto target is the paper's thesis as an API, and Compile is the
// one place it is resolved: compiling for Target{NumQubits: n, Auto:
// true} profiles the circuit, scores the engines it serves — the fused
// simulator at each fusion width and the distributed cluster — with the
// cost model (internal/perfmodel), picks kind, node count,
// fusion width and the per-region emulate-vs-fuse decisions itself, and
// stamps the chosen concrete shape on the Executable. OpenFor opens the
// backend an executable runs on, whatever target it was compiled for:
//
//	x, err := repro.Compile(c, repro.Target{NumQubits: n, Auto: true})
//	b, err := repro.OpenFor(x)
//	res, err := b.Run(x) // res.Selection explains the choice
//
// Result.Selection reports the chosen shape, every candidate's predicted
// cost, and the per-region verdicts.
//
// One interface, one engine: every target runs on the cluster engine —
// the fused simulator is the cluster on one node. The Backend interface
// (Run, RunUnits, ApplyGate, Probability, Sample, State, Close) executes
// compiled Executables: Compile runs the explicit pass pipeline —
// recognize emulation regions, apply the cost model, fuse residual gate
// runs, schedule placement remaps — and Run is pure dispatch, returning a
// unified Result (emulated regions, fused blocks, communication
// rounds/bytes, wall time). See internal/backend for the pipeline
// contract; the qHiPSTER-class baseline, a gate-by-gate reference replay
// the engine is measured against, lives there and in qemu-run's -backend
// generic, not in this facade.
//
// Two execution models are provided over the same 2^n state vector:
//
//   - gate-level simulation executes every elementary gate through
//     structure-specialised kernels (what a quantum computer would do);
//   - emulation replaces whole subroutines with classical shortcuts:
//     arithmetic becomes a basis-state permutation, the quantum Fourier
//     transform becomes a classical FFT (on the cluster engine the
//     four-step FFT: two all-to-alls, with the output order left in the
//     placement until something reads it, which pays Eq. 5's third),
//     phase estimation becomes dense linear algebra,
//     and measurement statistics are read off exactly.
//
// The full API lives in the internal packages (backend, recognize,
// fuse, statevec, circuit, gates, qasm, qft, qpe, revlib, cluster, linalg,
// fft, perfmodel).
package repro

import (
	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/noise"
	"repro/internal/recognize"
	"repro/internal/statevec"
)

// Backend is the one execution interface over the cluster engine (the
// fused simulator on one node). See internal/backend.
type Backend = backend.Backend

// Target is a backend's execution shape — what Compile needs to build an
// Executable the backend accepts.
type Target = backend.Target

// Executable is a compiled circuit: recognised emulation ops plus fused
// (and, on distributed targets, placement-scheduled) gate segments. It is
// immutable and reusable across runs.
type Executable = backend.Executable

// Result is the unified outcome of one run: emulated regions (and their
// substrates), fused blocks, communication rounds/bytes, wall time.
type Result = backend.Result

// Selection is the auto target's explainable output: the chosen target,
// its predicted cost, every candidate's score, and the per-region
// emulate-vs-fuse verdicts. Result.Selection carries it on runs compiled
// for an auto target.
type Selection = backend.Selection

// Candidate is one execution shape the auto selector scored.
type Candidate = backend.Candidate

// RegionVerdict is the cost model's per-region emulate-vs-fuse decision.
type RegionVerdict = backend.RegionVerdict

// Open returns a Backend of shape t over a fresh |0...0> register of
// t.NumQubits qubits; see the package comment for the shapes. An auto
// target names no engine: Compile it and open the executable with
// OpenFor.
func Open(t Target) (Backend, error) { return backend.New(t) }

// OpenFor returns a Backend over a fresh |0...0> register shaped for x:
// the concrete target x was compiled for, or resolved to when it was
// compiled for an auto target.
func OpenFor(x *Executable) (Backend, error) { return backend.New(x.Target) }

// Compile runs the pass pipeline (profile -> select on auto targets, then
// recognize -> cost model -> fuse -> placement) over a circuit for a
// Target, returning an Executable reusable across runs: b.Run(x) executes
// it on a backend of b.Target() or on OpenFor(x).
func Compile(c *Circuit, t Target) (*Executable, error) {
	return backend.Compile(c, t)
}

// EncodeExecutable serialises a compiled Executable to the versioned
// binary artifact format (magic/version/crc container; see
// internal/backend's codec) so it can persist to disk or warm-start a
// serving cache.
func EncodeExecutable(x *Executable) ([]byte, error) { return x.Encode() }

// DecodeExecutable parses an encoded Executable, rebuilding its fusion
// plans and communication schedules, then runs the structural verifier
// over the result: crc32 catches bit rot, VerifyExecutable catches
// semantically corrupt artifacts whose bytes are internally well-formed.
// It returns an error — never panics — on truncated, corrupt or
// version-skewed input.
func DecodeExecutable(data []byte) (*Executable, error) {
	x, err := backend.Decode(data)
	if err != nil {
		return nil, err
	}
	if err := backend.VerifyExecutable(x); err != nil {
		return nil, err
	}
	return x, nil
}

// VerifyExecutable checks the structural invariants of a compiled or
// decoded Executable — unit contiguity, unitary gate matrices, op
// payload shapes, schedule round accounting, summary counters — and
// returns nil exactly when the artifact is safe to execute. Decode paths
// (DecodeExecutable, the serving cache's warm start and upload
// admission) call it automatically; call it directly on executables from
// any other source.
func VerifyExecutable(x *Executable) error { return backend.VerifyExecutable(x) }

// Fingerprint returns the canonical cache key of compiling c for t: two
// (circuit, target) pairs share a fingerprint exactly when Compile
// produces interchangeable executables (the Workers run-time knob is
// excluded). cmd/qemu-serve keys its artifact cache with it.
func Fingerprint(c *Circuit, t Target) (string, error) { return backend.Fingerprint(c, t) }

// Channel is one single-qubit noise channel (Pauli flip, depolarizing,
// amplitude or phase damping) with its probability; see
// internal/circuit.
type Channel = circuit.Channel

// ChannelKind enumerates the supported channels.
type ChannelKind = circuit.ChannelKind

// Noise channel kinds for Channel.Kind.
const (
	NoiseX            = circuit.FlipX
	NoiseY            = circuit.FlipY
	NoiseZ            = circuit.FlipZ
	NoiseDepolarizing = circuit.Depolarizing
	NoiseAmpDamp      = circuit.AmplitudeDamping
	NoisePhaseDamp    = circuit.PhaseDamping
)

// NoiseModel is a circuit's attached noise: global after-each-gate
// channels plus per-gate attachments; see internal/circuit. Build it
// through Circuit.SetGlobalNoise and Circuit.AttachNoise.
type NoiseModel = circuit.NoiseModel

// TrajectoryOptions configure a stochastic-trajectory batch: trajectory
// count, master seed, parallel workers. See internal/noise.
type TrajectoryOptions = noise.Options

// TrajectoryResult carries a batch's per-trajectory outcomes, its jump
// count, and how many units a jump fired inside (those are replayed gate
// by gate; every other unit runs whole, fused).
type TrajectoryResult = noise.Result

// WithNoise attaches a global after-each-gate channel, given as a
// "kind:probability" spec (e.g. "depolarizing:0.001"), to a circuit.
// Compile folds the model into the Executable's noise plan;
// RunTrajectories replays it. An empty spec is a no-op.
func WithNoise(c *Circuit, spec string) error { return noise.Attach(c, spec) }

// ParseNoiseSpec parses a "kind:probability" channel spec — the grammar
// shared by WithNoise, the qemu-run -noise flag and the serving API.
func ParseNoiseSpec(spec string) (Channel, error) { return noise.ParseSpec(spec) }

// RunTrajectories evolves a batch of stochastic wavefunctions of a
// compiled Executable, sampling one Kraus branch per noise insertion
// point per trajectory, and returns one measured outcome per
// trajectory. The batch is seed-deterministic: one seed yields the same
// outcomes whatever the worker count. See internal/noise.
func RunTrajectories(x *Executable, opts TrajectoryOptions) (*TrajectoryResult, error) {
	return noise.Run(x, opts)
}

// Circuit is an ordered gate sequence; see internal/circuit.
type Circuit = circuit.Circuit

// Gate is a (controlled) single-qubit gate; see internal/gates.
type Gate = gates.Gate

// State is the dense 2^n-amplitude wavefunction; see internal/statevec.
type State = statevec.State

// EmulateMode selects the emulation-dispatch behaviour: EmulateOff
// (default), EmulateAnnotated (trust circuit region annotations) or
// EmulateAuto (also pattern-match unannotated QFT ladders, revlib
// arithmetic shapes, phase oracles and diagonal runs). See
// internal/recognize.
type EmulateMode = recognize.Mode

// Emulation-dispatch modes for Target.Emulate.
const (
	EmulateOff       = recognize.Off
	EmulateAnnotated = recognize.Annotated
	EmulateAuto      = recognize.Auto
)

// Region annotates a circuit gate range as a named subroutine the
// emulation dispatcher can lower; see internal/recognize for the
// vocabulary.
type Region = circuit.Region

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(n uint) *Circuit { return circuit.New(n) }
