package backend

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/fuse"
	"repro/internal/gates"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// Kind selects the execution engine of a Target.
type Kind int

const (
	// Fused is the paper's simulator: structure-specialised kernels with
	// same-target fusion, optionally multi-qubit block fusion. It is a
	// name, not an engine: normalize spells it Cluster, and Nodes picks
	// the node count under either name.
	Fused Kind = iota
	// Generic is the qHiPSTER-class structure-blind baseline: the
	// gate-by-gate reference.
	Generic
	// Cluster is the engine of internal/cluster: the register on Nodes
	// emulated nodes, one of them for a single-node target.
	Cluster
)

func (k Kind) String() string {
	switch k {
	case Fused:
		return "fused"
	case Generic:
		return "generic"
	case Cluster:
		return "cluster"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Target describes the execution shape an Executable is compiled for and
// a Backend is opened with. The zero value plus a NumQubits is a valid
// single-node fused simulator with emulation off; normalize spells it
// Cluster{Nodes: 1}.
type Target struct {
	// NumQubits is the register width.
	NumQubits uint
	// Auto delegates every remaining knob to the profile-driven selector:
	// Compile profiles the circuit, scores candidate shapes with the
	// cost model (internal/perfmodel) and compiles for the
	// cheapest — kind, node count, fusion width and per-region
	// emulate-vs-fuse decisions all come from the model. When set, the
	// fields below (except Workers) are ignored and normalize clears
	// them, so every auto target of a given width has one canonical form
	// (and one artifact fingerprint). Only Compile takes an auto target;
	// the executable it returns carries the resolved concrete Target, and
	// that is what New opens.
	Auto bool
	// Kind selects the engine: Cluster (Fused is another name for it) or
	// the Generic reference.
	Kind Kind
	// FuseWidth >= 2 enables multi-qubit block fusion at that width
	// (normalized to at most the shard capacity and fuse.MaxWidth on
	// Cluster targets); 0 or 1 keeps the classic same-target fusion.
	// Ignored (normalized to 0) by Generic.
	FuseWidth int
	// Workers caps the state-vector kernel parallelism (per shard on
	// Cluster targets); 0 uses the GOMAXPROCS default.
	Workers int
	// Nodes is the node count (power of two) of a Fused or Cluster
	// target; 0 means 1. A Generic target runs on one node and rejects
	// more.
	Nodes int
	// Emulate selects the recognition pass mode: Off (everything gate
	// level), Annotated (trust circuit.Region markers) or Auto (also
	// pattern-match unannotated structure). The Generic baseline rejects
	// it — it exists to measure structure-blind execution. On explicit
	// targets a recognised diagonal run shorter than
	// recognize.DefaultDiagCutoffGates whose support fits the effective
	// fusion width stays on the fused gate path, which folds it into one
	// ApplyDiagN sweep anyway.
	Emulate recognize.Mode
}

// normalize resolves defaults and validates the target against a register
// width, returning the effective shape.
func (t Target) normalize(n uint) (Target, error) {
	if t.NumQubits == 0 {
		t.NumQubits = n
	}
	if t.NumQubits != n {
		return t, fmt.Errorf("backend: target is %d qubits, circuit %d", t.NumQubits, n)
	}
	if t.Auto {
		// Canonical auto form: the selector owns every knob but the
		// register width and worker cap. Clearing the rest here means
		// equivalent auto targets compare and fingerprint identically.
		return Target{NumQubits: t.NumQubits, Auto: true, Workers: t.Workers,
			Emulate: recognize.Auto}, nil
	}
	if t.Kind == Generic && t.Emulate != recognize.Off {
		// The baseline exists to measure structure-blind execution; letting
		// it run emulation shortcuts would silently turn a qHiPSTER-class
		// measurement into an emulator one.
		return t, fmt.Errorf("backend: the %s baseline does not support emulation dispatch", t.Kind)
	}
	switch t.Kind {
	case Fused, Cluster:
		t.Kind = Cluster
		if t.Nodes <= 0 {
			t.Nodes = 1
		}
		if t.Nodes&(t.Nodes-1) != 0 {
			return t, fmt.Errorf("backend: node count %d is not a power of two", t.Nodes)
		}
		if nodeBits(t.Nodes) > n {
			return t, fmt.Errorf("backend: %d nodes need at least %d qubits, have %d",
				t.Nodes, nodeBits(t.Nodes), n)
		}
		// Widths that run identically share one spelling, so they share a
		// cache key: a negative width is 0, and a width past what a block
		// can span — the shard, or fuse.MaxWidth — is that cap. 0 and 1
		// stay apart although both run same-target fusion: a pinned
		// P = 4 key (TestTargetFingerprintsPinned) is spelled with 0, and
		// the auto selector reports its one-qubit rung as w=1.
		t.FuseWidth = min(max(t.FuseWidth, 0), int(min(t.LocalQubits(), fuse.MaxWidth)))
	case Generic:
		if t.Nodes > 1 {
			return t, fmt.Errorf("backend: the %s baseline cannot shard across %d nodes", t.Kind, t.Nodes)
		}
		t.Nodes = 1
		t.FuseWidth = 0 // the reference replay fuses nothing
	default:
		return t, fmt.Errorf("backend: unknown target kind %d", int(t.Kind))
	}
	return t, nil
}

// effectiveFuseWidth is the widest support the gate path folds into one
// sweep: the block-fusion width clamped to the shard when enabled, else 1
// (same-target runs).
func (t Target) effectiveFuseWidth() uint {
	return uint(max(min(t.FuseWidth, int(t.LocalQubits())), 1))
}

// LocalQubits returns the per-node shard width of a normalized target:
// the register width on one node.
func (t Target) LocalQubits() uint { return t.NumQubits - nodeBits(t.Nodes) }

// nodeBits returns log2(p) for a power-of-two p.
func nodeBits(p int) uint { return uint(bits.TrailingZeros(uint(p))) }

// checkShape returns nil when an executable compiled for x can run on a
// backend opened for b, and otherwise an error naming both shapes.
func checkShape(x, b Target) error {
	if x.NumQubits == b.NumQubits && x.Kind == b.Kind && x.Nodes == b.Nodes &&
		x.effectiveFuseWidth() == b.effectiveFuseWidth() {
		return nil
	}
	return fmt.Errorf("backend: executable compiled for %s, backend is %s", x.shape(), b.shape())
}

// shape renders the fields checkShape compares.
func (t Target) shape() string {
	return fmt.Sprintf("%s P=%d w=%d/%d qubits", t.Kind, t.Nodes, t.effectiveFuseWidth(), t.NumQubits)
}

// Backend is the one execution interface. Every served target runs on the
// cluster engine — a single-node target is the cluster at P = 1 — and
// the Generic baseline on a gate-by-gate reference replay; Run is pure
// dispatch over the Executable's units.
type Backend interface {
	// Target returns the backend's (normalized, concrete) execution shape
	// — what Compile needs to build an Executable this backend accepts.
	Target() Target
	// Run executes a compiled Executable and reports what happened.
	Run(x *Executable) (*Result, error)
	// RunUnits executes units [lo, hi) of x against the current state,
	// without resetting it — the trajectory runner's replay primitive:
	// run a unit range, strike with ApplyKraus, continue.
	RunUnits(x *Executable, lo, hi int) error
	// Reset returns the register to |0...0> in place, reusing the
	// allocated state.
	Reset()
	// ApplyKraus applies a (generally non-unitary) 2x2 Kraus operator to
	// qubit q, renormalises the state, and returns the pre-normalisation
	// branch mass <ψ|K†K|ψ>.
	ApplyKraus(m gates.Matrix2, q uint) float64
	// ApplyGate executes one gate immediately, outside any schedule.
	ApplyGate(g gates.Gate)
	// State returns the state vector. On one node it is the live state:
	// a write through it is what the next Run, Probability or Sample
	// reads. On several nodes it gathers the shards into a copy —
	// verification at small sizes, not the hot path.
	State() *statevec.State
	// Probability returns P(qubit q reads 1) without collapsing.
	Probability(q uint) float64
	// Sample draws one full-register outcome without collapsing.
	Sample(src *rng.Source) uint64
	// SampleMany draws k independent outcomes; identical RNG streams give
	// draw-for-draw identical samples on every backend.
	SampleMany(k int, src *rng.Source) []uint64
	// Close releases backend resources. Close is idempotent and safe to
	// call concurrently with itself and with in-flight Runs: every call
	// returns nil, Runs already executing complete normally, and Runs
	// started after the first Close fail with ErrClosed. The serving path
	// (internal/serve) relies on this contract to retire cache-evicted
	// backends without fencing readers.
	Close() error
}

// ErrClosed is the error Run returns on a backend that has been closed.
var ErrClosed = errors.New("backend: closed")

// New opens a backend of the target's kind over a fresh |0...0> register.
// An auto target names no engine: Compile resolves it, and the backend to
// open is New(x.Target) of the executable it returns.
func New(t Target) (Backend, error) {
	if t.Auto {
		return nil, errors.New("backend: an auto target has no engine; Compile the circuit first and open the executable's Target")
	}
	t, err := t.normalize(t.NumQubits)
	if err != nil {
		return nil, err
	}
	if t.NumQubits == 0 {
		return nil, fmt.Errorf("backend: target needs a register width")
	}
	if t.Kind == Generic {
		return newLocalBackend(t), nil
	}
	return newClusterBackend(t)
}

// CopyState makes dst's register a copy of src's, in place: the cluster
// copies every shard and the qubit placement, with no communication
// charged, the Generic reference its state vector. Both backends must run
// on the same engine at the same width (and node count); their kernel
// worker counts may differ. It is a function rather than a Backend method
// so the interface stays what every engine must implement; the
// trajectory runner forks trajectories off a shared noise-free prefix
// with it.
func CopyState(dst, src Backend) error {
	switch d := dst.(type) {
	case *local:
		if s, ok := src.(*local); ok && s.t.NumQubits == d.t.NumQubits {
			d.st.CopyFrom(s.st)
			return nil
		}
	case *clusterBackend:
		if s, ok := src.(*clusterBackend); ok {
			return d.c.CopyFrom(s.c)
		}
	}
	return fmt.Errorf("backend: cannot copy a %s state into a %s backend", src.Target().shape(), dst.Target().shape())
}

// RegionReport describes one recognised region of a Result: what it was,
// the gate range it replaced, and the substrate it executed on (a name
// cluster.Lowerable returns: "statevec" for an op run on every shard as
// on one state).
type RegionReport struct {
	Kind      string
	Lo, Hi    int
	Gates     int
	Annotated bool
	// Verified is recognize.Op.Verified: the region was proved against its
	// gates, by identity with the network it names (any width) or column
	// by column (up to recognize.MaxVerifyQubits of support). A
	// wider region without identity runs unverified; a lying annotation
	// that wide is not caught (ROADMAP items 10(b), (c)).
	Verified  bool
	Substrate string
}

func (r RegionReport) String() string {
	src := "matched"
	if r.Annotated {
		src = "annotated"
	}
	ver := ""
	if r.Verified {
		ver = ", verified"
	}
	return fmt.Sprintf("%s gates [%d,%d) via %s (%s%s)", r.Kind, r.Lo, r.Hi, r.Substrate, src, ver)
}

// Comm is the communication paid by one run (always zero on single-node
// backends).
type Comm struct {
	Rounds    uint64
	Messages  uint64
	BytesSent uint64
	AllToAlls uint64
}

// Result is the unified outcome of one Backend.Run, consumed the same way
// by qemu-run, qemu-bench and the tests regardless of engine.
type Result struct {
	// Wall is the execution wall time (compilation excluded).
	Wall time.Duration
	// TotalGates echoes the compiled circuit; EmulatedGates of them were
	// replaced by the Emulated shortcuts below.
	TotalGates    int
	EmulatedGates int
	Emulated      []RegionReport
	// Skipped lists regions recognition or compilation returned to gate
	// level, with reasons (lying annotations, cost model, no distributed
	// lowering).
	Skipped []recognize.Skip
	// FusedBlocks counts dense/diagonal fused blocks across the gate
	// segments; PlannedRemaps the scheduler's placement remap rounds
	// (distributed targets).
	FusedBlocks   int
	PlannedRemaps int
	// Comm is the communication the run actually paid.
	Comm Comm
	// Prefix describes the executable's product prefix, nil when it has
	// none.
	Prefix *PrefixReport
	// ComposedPairs counts the adjacent op pairs the run executed as one
	// pass (an arithmetic op and a diagonal table), CarriedSums the
	// reflections it ran in one pass on an amplitude sum carried from the
	// units before them.
	ComposedPairs int
	CarriedSums   int
	// Selection, on executables compiled for an Auto target, is the
	// profile-driven choice that produced the execution shape: the
	// chosen target, every candidate's predicted cost, and the
	// per-region verdicts. Nil on explicitly-targeted compiles.
	Selection *Selection
}

// PrefixReport describes an executable's product prefix: its gates, the
// units its span covers, the recognised ops it absorbed and the factors
// they joined it as (an op that does not split is one), the widths of its
// clusters and the bytes its fill holds, and on a Result whether the run
// filled it (a fresh register) or ran the spanned units.
type PrefixReport struct {
	Gates    int
	Spanned  int
	Absorbed int
	Factors  int
	Widths   []int
	Bytes    int
	Filled   bool
}

func (p *PrefixReport) String() string {
	how := "ran unit by unit (register not fresh)"
	if p.Filled {
		how = "filled"
	}
	return fmt.Sprintf("product prefix: %d gates and %d ops (%d factors) over %d units in clusters of %v qubits (%d B of fill tables), %s",
		p.Gates, p.Absorbed, p.Factors, p.Spanned, p.Widths, p.Bytes, how)
}

func (r *Result) String() string {
	s := fmt.Sprintf("%d/%d gates emulated via %d shortcuts, %d fused blocks",
		r.EmulatedGates, r.TotalGates, len(r.Emulated), r.FusedBlocks)
	if r.Comm.Rounds > 0 {
		s += fmt.Sprintf(", %d comm rounds (%.1f MB)", r.Comm.Rounds,
			float64(r.Comm.BytesSent)/(1<<20))
	}
	return s + fmt.Sprintf(" in %v", r.Wall)
}
