package backend_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/backend"
	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/gates"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// The Backend contract, driven by generated call sequences: whatever a
// caller does between runs — reads, resets, gates and Kraus strikes from
// outside, copies and loads, windows of units that cut a composed pair or
// a reflection's carried sum — the register must be the one a dense
// state vector reaches by the same calls, gate by gate.

// contractQubits is the register width of every contract circuit: wide
// enough that eight nodes hold seven-qubit shards and that the Grover mix
// composes its pairs on two nodes.
const contractQubits = 10

// contractCircuit returns contract circuit k of contractCircuits: the six
// circgen families, the Grover mix from a Hadamard layer, and Grover
// iterations with a gate between the flip and the reflection.
func contractCircuit(k uint8, src *rng.Source) (string, *circuit.Circuit) {
	n := uint(contractQubits)
	switch k % contractCircuits {
	case 0:
		return "brickwork", circgen.Brickwork(src, n, 3)
	case 1:
		return "ladders", circgen.QFTLadders(src, n, 2)
	case 2:
		return "phaseruns", circgen.InterruptedPhaseRuns(src, n, 6)
	case 3:
		return "widectl", circgen.WideControlled(src, n, 2)
	case 4:
		return "arithmetic", circgen.Arithmetic(src, n, 2)
	case 5:
		return "fourier", circgen.FourierSandwich(src, n, 1)
	case 6:
		return "grovermix", circgen.GroverMix(src, n, false)
	default:
		return "flipgate", flipThenGate(src, n)
	}
}

const contractCircuits = 8

// flipThenGate is a Hadamard layer, then two Grover iterations whose
// annotated phase flip and annotated reflection have a one-qubit rotation
// between them: the flip leaves a known amplitude sum that the rotation's
// gate unit changes, so a run that carried it on would reflect about the
// wrong mean.
func flipThenGate(src *rng.Source, n uint) *circuit.Circuit {
	c := circuit.New(n)
	all := []uint64{uint64(n)}
	var controls []uint
	for q := uint(0); q < n; q++ {
		c.Append(gates.H(q))
		all = append(all, uint64(q))
		if q > 0 {
			controls = append(controls, q)
		}
	}
	for range 2 {
		marked, lo := src.Uint64n(1<<n), c.Len()
		for pass := 0; pass < 2; pass++ {
			for q := uint(0); q < n; q++ {
				if marked>>q&1 == 0 {
					c.Append(gates.X(q))
				}
			}
			if pass == 0 {
				c.Append(gates.Z(0).WithControls(controls...))
			}
		}
		c.Annotate(circuit.Region{Name: "phaseflip", Args: append(slices.Clone(all), marked), Lo: lo, Hi: c.Len()})
		c.Append(gates.Ry(uint(src.Intn(int(n))), 0.2+2*src.Float64()))
		lo = c.Len()
		for q := uint(0); q < n; q++ {
			c.Append(gates.H(q), gates.X(q))
		}
		c.Append(gates.Z(0).WithControls(controls...))
		for q := uint(0); q < n; q++ {
			c.Append(gates.X(q), gates.H(q))
		}
		c.Annotate(circuit.Region{Name: "reflect-uniform", Args: all, Lo: lo, Hi: c.Len()})
	}
	return c
}

// contractShape decodes one byte into an execution shape: the recognition
// mode, the fusion width, and whether the circuit carries a noise model
// (a few Pauli points on random gates, so its units are cut where a
// trajectory would strike and its ops stay recognised).
func contractShape(b uint8) (mode recognize.Mode, width int, noisy bool) {
	modes := [3]recognize.Mode{recognize.Off, recognize.Annotated, recognize.Auto}
	return modes[b%3], [3]int{0, 2, 3}[b/3%3], b/9%2 == 1
}

// contractEnv is one sequence's backend, its dense mirror and what the
// calls need to replay on the mirror.
type contractEnv struct {
	t    *testing.T
	name string
	c    *circuit.Circuit
	x    *backend.Executable
	b    backend.Backend
	ref  *statevec.State
	src  *rng.Source
	log  []string
}

// failf reports a contract violation with the calls that led to it.
func (e *contractEnv) failf(format string, args ...any) {
	e.t.Helper()
	e.t.Fatalf("%s after %v: %s", e.name, e.log, fmt.Sprintf(format, args...))
}

// mirror applies the gates of units [lo, hi) to the reference.
func (e *contractEnv) mirror(lo, hi int) {
	if lo >= hi {
		return
	}
	for _, g := range e.c.Gates[e.x.Units[lo].Lo:e.x.Units[hi-1].Hi] {
		e.ref.ApplyGate(g)
	}
}

// runUnits runs a window on the backend and on the mirror.
func (e *contractEnv) runUnits(lo, hi int) {
	e.log = append(e.log, fmt.Sprintf("RunUnits(%d,%d)", lo, hi))
	if err := e.b.RunUnits(e.x, lo, hi); err != nil {
		e.failf("RunUnits: %v", err)
	}
	e.mirror(lo, hi)
}

// randomGate draws a one- or two-qubit gate on the register.
func (e *contractEnv) randomGate() gates.Gate {
	n := int(e.c.NumQubits)
	q := uint(e.src.Intn(n))
	r := uint((int(q) + 1 + e.src.Intn(n-1)) % n)
	switch e.src.Intn(4) {
	case 0:
		return gates.H(q)
	case 1:
		return gates.Rx(q, 0.1+3*e.src.Float64())
	case 2:
		return gates.CNOT(q, r)
	default:
		return gates.CR(q, r, 0.1+3*e.src.Float64())
	}
}

// call makes one random call and checks what it returns.
func (e *contractEnv) call() {
	units := len(e.x.Units)
	n := e.c.NumQubits
	switch k := e.src.Intn(11); {
	case k == 0 && e.x.Noise == nil:
		e.log = append(e.log, "Run")
		if _, err := e.b.Run(e.x); err != nil {
			e.failf("Run: %v", err)
		}
		e.mirror(0, units)
	case k <= 1:
		lo := e.src.Intn(units + 1)
		e.runUnits(lo, lo+e.src.Intn(units-lo+1))
	case k == 2:
		// The whole executable in two windows cut at mid: a cut pair or
		// chain runs apart.
		mid := e.src.Intn(units + 1)
		e.runUnits(0, mid)
		e.runUnits(mid, units)
	case k == 3:
		e.log = append(e.log, "Reset")
		e.b.Reset()
		e.ref = statevec.New(n)
	case k == 4:
		g := e.randomGate()
		e.log = append(e.log, "ApplyGate("+g.String()+")")
		e.b.ApplyGate(g)
		e.ref.ApplyGate(g)
	case k == 5:
		q := uint(e.src.Intn(int(n)))
		m := gates.Matrix2{1, 0, 0, complex(0.3+0.6*e.src.Float64(), 0)}
		e.log = append(e.log, fmt.Sprintf("ApplyKraus(q=%d)", q))
		got := e.b.ApplyKraus(m, q)
		want := e.ref.ApplyKraus1(m, q)
		e.ref.RenormalizeMass(want)
		if math.Abs(got-want) > 1e-10 {
			e.failf("Kraus branch mass %g, want %g", got, want)
		}
	case k == 6:
		q := uint(e.src.Intn(int(n)))
		e.log = append(e.log, fmt.Sprintf("Probability(%d)", q))
		if got, want := e.b.Probability(q), e.ref.Probability(q); math.Abs(got-want) > 1e-10 {
			e.failf("P(q%d = 1) is %g, want %g", q, got, want)
		}
	case k == 7:
		seed := e.src.Uint64()
		e.log = append(e.log, "SampleMany(64)")
		got, want := e.b.SampleMany(64, rng.New(seed)), e.ref.SampleMany(64, rng.New(seed))
		for i := range want {
			if got[i] != want[i] {
				e.failf("draw %d is |%d>, want |%d>", i, got[i], want[i])
			}
		}
	case k == 8:
		e.log = append(e.log, "State")
		if d := e.b.State().MaxDiff(e.ref); d > 1e-10 {
			e.failf("State differs by %g", d)
		}
	case k == 9:
		// A copy of a second register: fresh, or written by a gate.
		from, err := backend.New(e.x.Target)
		if err != nil {
			e.failf("New: %v", err)
		}
		defer from.Close()
		e.ref = statevec.New(n)
		e.log = append(e.log, "CopyState(fresh)")
		if e.src.Intn(2) == 0 {
			g := e.randomGate()
			from.ApplyGate(g)
			e.ref.ApplyGate(g)
			e.log[len(e.log)-1] = "CopyState(" + g.String() + ")"
		}
		if err := backend.CopyState(e.b, from); err != nil {
			e.failf("CopyState: %v", err)
		}
	default:
		e.log = append(e.log, "LoadState")
		st := statevec.NewRandom(n, e.src)
		if err := e.b.(interface{ Cluster() *cluster.Cluster }).Cluster().LoadState(st); err != nil {
			e.failf("LoadState: %v", err)
		}
		e.ref = st
	}
}

// checkContract compiles contract circuit circ for shape on p nodes and
// drives one generated sequence of 6 to 11 calls on a new backend, the
// register checked against the mirror at the end.
func checkContract(t *testing.T, seed uint64, circ, nodes, shape uint8) {
	src := rng.New(seed)
	cname, c := contractCircuit(circ, src)
	mode, width, noisy := contractShape(shape)
	p := 1 << (nodes % 4)
	if noisy {
		c = circuit.New(c.NumQubits).Extend(c)
		for range 3 {
			c.AttachNoise(src.Intn(c.Len()), uint(src.Intn(int(c.NumQubits))), circuit.Channel{Kind: circuit.Depolarizing, P: 0.1})
		}
	}
	name := fmt.Sprintf("%s/P=%d/%v/w=%d/noisy=%v/seed=%d", cname, p, mode, width, noisy, seed)
	x, err := backend.Compile(c, backend.Target{NumQubits: c.NumQubits, Kind: backend.Cluster, Nodes: p, FuseWidth: width, Emulate: mode})
	if err != nil {
		t.Fatalf("%s: Compile: %v", name, err)
	}
	b, err := backend.New(x.Target)
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	defer b.Close()
	e := &contractEnv{t: t, name: name, c: c, x: x, b: b, ref: statevec.New(c.NumQubits), src: src}
	for range 6 + src.Intn(6) {
		e.call()
	}
	if d := b.State().MaxDiff(e.ref); d > 1e-10 {
		e.failf("the register differs from the mirror by %g", d)
	}
}

// TestBackendContract runs two sequences on every contract circuit, node
// count and execution shape.
func TestBackendContract(t *testing.T) {
	seed := uint64(4700)
	for circ := range uint8(contractCircuits) {
		for nodes := range uint8(4) {
			for shape := range uint8(18) {
				for range 2 {
					seed++
					checkContract(t, seed, circ, nodes, shape)
				}
			}
		}
	}
}

// FuzzBackendContract is TestBackendContract on one decoded input.
func FuzzBackendContract(f *testing.F) {
	for i := range uint64(contractCircuits) {
		f.Add(4800+i, uint8(i), uint8(i%4), uint8(2+3*i))
	}
	f.Fuzz(func(t *testing.T, seed uint64, circ, nodes, shape uint8) {
		checkContract(t, seed, circ, nodes, shape)
	})
}
