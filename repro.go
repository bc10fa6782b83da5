// Package repro is a high-performance quantum-circuit simulator and
// emulator in pure Go, reproducing Häner, Steiger, Smelyanskiy & Troyer,
// "High Performance Emulation of Quantum Circuits" (SC 2016,
// arXiv:1604.06460).
//
// # The entrypoint
//
// Open is the single constructor for every execution engine:
//
//	b, err := repro.Open(n, repro.WithAuto())                  // profile-driven: the system picks
//	b, err := repro.Open(n)                                    // the paper's fused simulator
//	b, err := repro.Open(n, repro.WithFusion(4))               // multi-qubit block fusion
//	b, err := repro.Open(n, repro.WithEmulation(repro.EmulateAuto)) // emulation dispatch
//	b, err := repro.Open(n, repro.WithNodes(8),                // distributed engine,
//	    repro.WithEmulation(repro.EmulateAuto))                //   emulating subroutines
//
// WithAuto is the paper's thesis as an API: Compile profiles the circuit,
// scores every candidate engine with the calibrated cost model
// (internal/perfmodel) and picks kind, node count, fusion width and the
// per-region emulate-vs-fuse decisions itself; Result.Selection reports
// the choice, every candidate's predicted cost, and the per-region
// verdicts.
//
// Every backend speaks the same interface (Run, ApplyGate,
// Sample/Measure, State, Stats, Close) and executes the same compiled
// Executables: Compile runs the explicit pass pipeline — recognize
// emulation regions, apply the cost model, fuse residual gate runs,
// schedule placement remaps on distributed targets — and Run is pure
// dispatch, returning a unified Result (emulated regions, fused blocks,
// communication rounds/bytes, wall time). See internal/backend for the
// pipeline contract.
//
// Two execution models are provided over the same 2^n state vector:
//
//   - gate-level simulation executes every elementary gate through
//     structure-specialised kernels (what a quantum computer would do);
//   - emulation replaces whole subroutines with classical shortcuts:
//     arithmetic becomes a basis-state permutation, the quantum Fourier
//     transform becomes a classical FFT (the four-step distributed FFT on
//     the cluster engine), phase estimation becomes dense linear algebra,
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

// Backend is the uniform execution interface over every engine: the local
// fused simulator, the qhipster-class and sparse baselines, and the
// distributed cluster engine. See internal/backend.
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

// BackendStats is the cumulative counter snapshot every backend reports.
type BackendStats = backend.Stats

// Selection is the auto backend's explainable output: the chosen target,
// its predicted cost, every candidate's score, and the per-region
// emulate-vs-fuse verdicts. Result.Selection carries it on runs compiled
// for an auto target.
type Selection = backend.Selection

// Candidate is one execution shape the auto backend scored.
type Candidate = backend.Candidate

// RegionVerdict is the cost model's per-region emulate-vs-fuse decision.
type RegionVerdict = backend.RegionVerdict

// OpenOption configures Open.
type OpenOption func(*backend.Target)

// WithAuto delegates engine choice to the profile-driven selector: at
// Compile time the circuit is profiled (width, depth, diagonal fraction,
// recognised-region coverage, per-width fused sweep counts) and the
// calibrated cost model picks kind, node count, fusion width and the
// per-region emulate-vs-fuse verdicts — no user thresholds. Other shape
// options (WithFusion, WithNodes, WithEmulation, WithDiagonalCutoff,
// kernel selectors) are ignored on an auto target; WithWorkers still
// applies. Calibrate the model once with `qemu-model -calibrate` to
// score with this machine's constants instead of the baked-in defaults.
func WithAuto() OpenOption {
	return func(t *backend.Target) { t.Auto = true }
}

// WithFusion enables multi-qubit block fusion at the given width (>= 2);
// 0 or 1 keeps the classic same-target fusion. On distributed backends
// the width is clamped to the per-node shard capacity.
func WithFusion(width int) OpenOption {
	return func(t *backend.Target) { t.FuseWidth = width }
}

// WithEmulation selects the emulation-dispatch mode: recognised
// subroutines (annotated regions; in Auto mode also pattern-matched QFT
// ladders, reversible arithmetic, phase oracles, diagonal runs) execute
// as classical shortcuts instead of gate by gate — on the distributed
// engine too, where QFT regions lower to the four-step distributed FFT
// and arithmetic to cluster-wide permutations.
func WithEmulation(mode EmulateMode) OpenOption {
	return func(t *backend.Target) { t.Emulate = mode }
}

// WithNodes shards the register across p emulated cluster nodes (power of
// two) running the communication-avoiding placement scheduler. p <= 1
// keeps the single-address-space engine.
func WithNodes(p int) OpenOption {
	return func(t *backend.Target) {
		t.Nodes = p
		if p > 1 {
			t.Kind = backend.Cluster
		}
	}
}

// WithMaxLocalQubits caps the per-node shard size of a distributed
// backend: the node count is raised (beyond WithNodes if needed) until
// each node holds at most 2^l amplitudes.
func WithMaxLocalQubits(l uint) OpenOption {
	return func(t *backend.Target) {
		t.MaxLocalQubits = l
		t.Kind = backend.Cluster
	}
}

// WithWorkers caps the state-vector kernel parallelism (per shard on
// distributed backends); 1 forces the single-threaded variants.
func WithWorkers(k int) OpenOption {
	return func(t *backend.Target) { t.Workers = k }
}

// WithGenericKernels selects the qHiPSTER-class structure-blind baseline:
// every gate through the dense 2x2 kernel, no fusion.
func WithGenericKernels() OpenOption {
	return func(t *backend.Target) { t.Kind = backend.Generic }
}

// WithSparseKernels selects the LIQUi|>-class baseline: every gate as an
// explicit sparse matrix-vector product.
func WithSparseKernels() OpenOption {
	return func(t *backend.Target) { t.Kind = backend.Sparse }
}

// WithDiagonalCutoff is the manual override of the emulation cost model:
// a recognised diagonal run with fewer than minGates gates whose support
// fits in maxWidth qubits stays on the fused gate path (which executes it
// in the same single sweep). Zero values pick the defaults; a negative
// minGates disables the cutoff so every recognised run dispatches. Under
// WithAuto the static cutoff is replaced by per-region model verdicts
// and this option is ignored.
func WithDiagonalCutoff(minGates int, maxWidth uint) OpenOption {
	return func(t *backend.Target) {
		t.DiagMinGates = minGates
		t.DiagMaxWidth = maxWidth
	}
}

// Open returns a Backend over a fresh |0...0> register of n qubits,
// configured by the options. It is the single entrypoint for every
// engine; see the package comment for the option-to-engine mapping.
func Open(n uint, opts ...OpenOption) (Backend, error) {
	t := backend.Target{NumQubits: n, Kind: backend.Fused}
	for _, o := range opts {
		o(&t)
	}
	return backend.New(t)
}

// Compile runs the pass pipeline (recognize -> cost model -> fuse ->
// placement) over a circuit for a backend's Target, returning an
// Executable reusable across runs: b.Run(x) executes it. Use
// backend.Execute (or b.Run(must(Compile(...)))) for one-shot runs.
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

// Emulation-dispatch modes for WithEmulation.
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
