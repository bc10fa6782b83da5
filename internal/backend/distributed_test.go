package backend_test

import (
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/gates"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// controlledHeavyCircuit draws a circuit mixing dense rotations,
// Hadamards, diagonal gates, CNOTs, controlled rotations and Toffolis —
// the circuit family of the distributed-agreement property tests,
// deliberately heavy on controlled and multi-controlled gates.
func controlledHeavyCircuit(n uint, count int, seed uint64) *circuit.Circuit {
	src := rng.New(seed)
	c := circuit.New(n)
	distinct := func(q uint) uint {
		o := uint(src.Intn(int(n)))
		for o == q {
			o = uint(src.Intn(int(n)))
		}
		return o
	}
	for i := 0; i < count; i++ {
		q := uint(src.Intn(int(n)))
		switch src.Intn(8) {
		case 0:
			c.Append(gates.H(q))
		case 1:
			c.Append(gates.Rx(q, src.Float64()*3))
		case 2:
			c.Append(gates.Ry(q, src.Float64()*3))
		case 3:
			c.Append(gates.Rz(q, src.Float64()*3))
		case 4:
			c.Append(gates.T(q))
		case 5:
			c.Append(gates.CNOT(distinct(q), q))
		case 6:
			c.Append(gates.CR(distinct(q), q, src.Float64()*2))
		default:
			a := distinct(q)
			b := distinct(q)
			if a != b {
				c.Append(gates.Toffoli(a, b, q))
			} else {
				c.Append(gates.X(q))
			}
		}
	}
	return c
}

// clusterOf reaches the emulated machine under a cluster backend, for the
// reductions the Backend interface does not carry.
func clusterOf(b backend.Backend) *cluster.Cluster {
	return b.(interface{ Cluster() *cluster.Cluster }).Cluster()
}

// runDistributed executes circ on a fresh cluster backend and returns it
// beside the gate-by-gate single-node state.
// Every run must pay exactly the communication rounds its schedules planned.
func runDistributed(t *testing.T, circ *circuit.Circuit, p, width int) (backend.Backend, *statevec.State) {
	t.Helper()
	d, err := backend.New(backend.Target{
		NumQubits: circ.NumQubits, Kind: backend.Cluster, Nodes: p, FuseWidth: width})
	if err != nil {
		t.Fatal(err)
	}
	x, err := backend.Compile(circ, d.Target())
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	planned := 0
	for _, u := range x.Units {
		planned += u.Sched.Rounds
	}
	if res.Comm.Rounds != uint64(planned) {
		t.Fatalf("p=%d width=%d: run used %d rounds, schedules planned %d", p, width, res.Comm.Rounds, planned)
	}
	ref := statevec.New(circ.NumQubits)
	circ.Run(ref)
	return d, ref
}

// TestDistributedMatchesSingleNode is the acceptance property: over P in
// {2, 4, 8} simulated nodes, random circuits (controlled gates included)
// run through the communication-avoiding engine — with and without fused
// blocks — must match the single-node statevec simulation to 1e-10.
func TestDistributedMatchesSingleNode(t *testing.T) {
	const n = uint(9)
	for _, p := range []int{2, 4, 8} {
		for _, width := range []int{0, 3, 4} {
			for seed := uint64(1); seed <= 3; seed++ {
				circ := controlledHeavyCircuit(n, 250, seed*31+uint64(p))
				d, ref := runDistributed(t, circ, p, width)
				if diff := d.State().MaxDiff(ref); diff > 1e-10 {
					t.Errorf("p=%d width=%d seed=%d: distributed differs from single-node by %g",
						p, width, seed, diff)
				}
			}
		}
	}
}

// TestCopyState: a register copied into a backend of the same engine and
// width is the same state, on both engines; a copy across engines, widths
// or node counts is refused.
func TestCopyState(t *testing.T) {
	const n = uint(7)
	open := func(tg backend.Target) backend.Backend {
		t.Helper()
		b, err := backend.New(tg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	local := backend.Target{NumQubits: n, Kind: backend.Fused, FuseWidth: 3}
	dist := backend.Target{NumQubits: n, Kind: backend.Cluster, Nodes: 4, FuseWidth: 3}
	for _, tg := range []backend.Target{local, dist} {
		x, err := backend.Compile(controlledHeavyCircuit(n, 80, 5), tg)
		if err != nil {
			t.Fatal(err)
		}
		src, dst := open(tg), open(tg)
		if _, err := src.Run(x); err != nil {
			t.Fatal(err)
		}
		if err := backend.CopyState(dst, src); err != nil {
			t.Fatalf("%s: %v", tg.Kind, err)
		}
		if d := dst.State().MaxDiff(src.State()); d != 0 {
			t.Errorf("%s: the copy differs from its source by %g", tg.Kind, d)
		}
	}
	narrow := local
	narrow.NumQubits--
	halved := dist
	halved.Nodes = 2
	for _, pair := range [][2]backend.Target{{local, dist}, {dist, local}, {narrow, local}, {halved, dist}} {
		if err := backend.CopyState(open(pair[0]), open(pair[1])); err == nil {
			t.Errorf("CopyState into %s n=%d P=%d from %s n=%d P=%d accepted",
				pair[0].Kind, pair[0].NumQubits, pair[0].Nodes, pair[1].Kind, pair[1].NumQubits, pair[1].Nodes)
		}
	}
}

// TestDistributedProbabilityMatchesSingleNode: every qubit's probability
// of reading 1, across the local/node-selecting boundary, must agree with
// the single-node path.
func TestDistributedProbabilityMatchesSingleNode(t *testing.T) {
	const n = uint(9)
	for _, p := range []int{2, 4, 8} {
		d, ref := runDistributed(t, controlledHeavyCircuit(n, 200, 5+uint64(p)), p, 3)
		for q := uint(0); q < n; q++ {
			got, want := d.Probability(q), ref.Probability(q)
			if math.Abs(got-want) > 1e-10 {
				t.Errorf("p=%d: P(q%d=1) = %g distributed, %g single-node", p, q, got, want)
			}
		}
	}
}

// TestDistributedSamplingMatchesSingleNode: with identical RNG streams the
// distributed sampler must reproduce the single-node SampleMany draws
// outcome for outcome (same CDF walk, shard-partitioned).
func TestDistributedSamplingMatchesSingleNode(t *testing.T) {
	const n = uint(9)
	for _, p := range []int{2, 4, 8} {
		d, ref := runDistributed(t, controlledHeavyCircuit(n, 180, 17+uint64(p)), p, 0)
		got := d.SampleMany(300, rng.New(7))
		want := ref.SampleMany(300, rng.New(7))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: sample %d is |%d> distributed, |%d> single-node", p, i, got[i], want[i])
			}
		}
		if g, w := d.Sample(rng.New(41)), ref.Sample(rng.New(41)); g != w {
			t.Errorf("p=%d: single draw |%d> distributed, |%d> single-node", p, g, w)
		}
	}
}

// TestDistributedValidationContract: the distributed backend must enforce
// the statevec kernel validation contract with identical messages, for
// offenders that would land on shard-local and node-selecting positions
// alike, before touching any amplitude.
func TestDistributedValidationContract(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic, want %q", name, want)
				return
			}
			if msg, ok := r.(string); !ok || msg != want {
				t.Errorf("%s: panicked with %v, want %q", name, r, want)
			}
		}()
		fn()
	}
	d, err := backend.New(backend.Target{NumQubits: 8, Kind: backend.Cluster, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := d.State()
	mustPanic("target out of range", "statevec: target qubit out of range",
		func() { d.ApplyGate(gates.H(8)) })
	mustPanic("remote control out of range", "statevec: control qubit out of range",
		func() { d.ApplyGate(gates.X(0).WithControls(9)) })
	mustPanic("control equals remote target", "statevec: control equals target",
		func() { d.ApplyGate(gates.X(7).WithControls(7)) })
	mustPanic("diagonal gate out of range", "statevec: target qubit out of range",
		func() { d.ApplyGate(gates.Rz(11, 0.5)) })
	if diff := d.State().MaxDiff(before); diff != 0 {
		t.Errorf("rejected gates mutated the state by %g", diff)
	}
}

// TestClusterNodeCount: a cluster target opens with exactly the node
// count it names, which must be a power of two the register can hold.
func TestClusterNodeCount(t *testing.T) {
	d, err := backend.New(backend.Target{NumQubits: 10, Kind: backend.Cluster, Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	cl := clusterOf(d)
	if cl.P != 8 || cl.L != 7 {
		t.Fatalf("got P=%d L=%d, want P=8 L=7", cl.P, cl.L)
	}
	for _, nodes := range []int{3, 2048} {
		if _, err := backend.New(backend.Target{NumQubits: 10, Kind: backend.Cluster, Nodes: nodes}); err == nil {
			t.Errorf("%d nodes accepted for a 10-qubit register", nodes)
		}
	}
}
