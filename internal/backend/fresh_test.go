package backend_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/perfmodel"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// prefixWorkload is a circuit whose first gate unit has a product prefix —
// a rotation layer and CNOTs that pair the low half with the high half,
// then a brickwork that joins everything — followed by a recognised QFT,
// so the executable has a unit after the one holding the prefix.
func prefixWorkload(n uint) *circuit.Circuit {
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		c.Append(gates.Ry(q, 0.3+0.4*float64(q)), gates.Rz(q, 1.1-0.2*float64(q)))
	}
	for q := uint(0); q < n/2; q++ {
		c.Append(gates.CNOT(q, q+n/2))
	}
	for q := uint(0); q < n; q++ {
		c.Append(gates.Rx(q, 0.7+0.1*float64(q)))
	}
	for q := uint(0); q+1 < n; q++ {
		c.Append(gates.CZ(q, q+1), gates.Ry(q+1, 0.5))
	}
	return c.Extend(qft.Circuit(n))
}

// carriedWorkload is a circuit whose product prefix carries past its
// first unit: a one-qubit layer, a matched four-gate diagonal on qubits
// 0-3 (wider than fusion width 3, so it stays an op) that the prefix
// absorbs into one cluster of ⌊n/2⌋ = 4 qubits, a second layer and CNOTs
// pairing the high qubits, then a CNOT joining the two sides — past the
// cap, so a remainder gate — and gates on both sides of it, some still in
// the prefix, before a recognised QFT on the whole register ends the span.
func carriedWorkload(n uint) *circuit.Circuit {
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		c.Append(gates.Ry(q, 0.3+0.4*float64(q)))
	}
	c.Append(gates.CZ(0, 1), gates.CZ(2, 3), gates.CZ(1, 2), gates.T(3))
	for q := uint(0); q < n; q++ {
		c.Append(gates.Rx(q, 0.7+0.1*float64(q)))
	}
	for q := n / 2; q+1 < n; q += 2 {
		c.Append(gates.CNOT(q, q+1))
	}
	c.Append(gates.CNOT(n/2-1, n/2), gates.Ry(n/2+1, 0.5), gates.Ry(n/2, 0.9), gates.H(0))
	return c.Extend(qft.Circuit(n))
}

// factoredWorkload is a circuit whose product prefix carries through a
// diagonal only factor by factor: a one-qubit layer, a matched diagonal of
// CZs on the pairs (0,1), (2,3) and (4,5) with a phase on each of their
// qubits — six qubits, past ⌊n/2⌋ = 4 at n = 8, in three factors that fit
// — then a second layer and a CNOT brickwork layer, whose gates join the
// pairs up to the cap and are the remainder's past it, before a
// recognised QFT on the whole register ends the span.
func factoredWorkload(n uint) *circuit.Circuit {
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		c.Append(gates.Ry(q, 0.3+0.4*float64(q)))
	}
	c.Append(gates.CZ(0, 1), gates.CZ(2, 3), gates.CZ(4, 5))
	for q := uint(0); q < 6; q++ {
		c.Append(gates.Phase(q, 0.2+0.3*float64(q)))
	}
	for q := uint(0); q < n; q++ {
		c.Append(gates.Rx(q, 0.7+0.1*float64(q)))
	}
	for q := uint(1); q+1 < n; q += 2 {
		c.Append(gates.CNOT(q, q+1))
	}
	return c.Extend(qft.Circuit(n))
}

// TestFactoredWorkloadShape keeps factoredWorkload honest on every node
// count the matrix runs: the prefix spans the gate unit, the diagonal —
// absorbed as its three factors, though its support passes the cap — and
// the gate unit after it.
func TestFactoredWorkloadShape(t *testing.T) {
	const n = 8
	for _, p := range []int{1, 2, 4} {
		x, err := backend.Compile(factoredWorkload(n), backend.Target{NumQubits: n, Kind: backend.Cluster, Nodes: p, FuseWidth: 3, Emulate: recognize.Auto})
		if err != nil {
			t.Fatal(err)
		}
		pre := x.Units[0].Prefix
		if pre == nil || pre.End != 3 || len(x.Units) != 4 || x.Units[1].Op == nil || len(x.Units[1].Op.Support()) <= n/2 {
			t.Fatalf("P=%d: %d units, prefix %+v; want a prefix over a gate unit, a diagonal past the cap and a gate unit, then the QFT", p, len(x.Units), pre)
		}
		b, err := backend.New(x.Target)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run(x)
		b.Close()
		if err != nil {
			t.Fatal(err)
		}
		if r := res.Prefix; r.Absorbed != 1 || r.Factors != 3 || !r.Filled {
			t.Errorf("P=%d: %v; want one op absorbed as three factors, filled", p, r)
		}
	}
}

// TestCarriedWorkloadShape keeps carriedWorkload honest on every node
// count the matrix runs: the prefix spans three units, the diagonal among
// them absorbed, its clusters reach the cap, and the gate that joins the
// two sides is the remainder's.
func TestCarriedWorkloadShape(t *testing.T) {
	const n = 8
	for _, p := range []int{1, 2, 4} {
		x, err := backend.Compile(carriedWorkload(n), backend.Target{NumQubits: n, Kind: backend.Cluster, Nodes: p, FuseWidth: 3, Emulate: recognize.Auto})
		if err != nil {
			t.Fatal(err)
		}
		pre := x.Units[0].Prefix
		if pre == nil || pre.End != 3 || len(x.Units) != 4 || x.Units[1].Op == nil || x.Units[1].Op.Kind() != "diagonal" {
			t.Fatalf("P=%d: %d units, prefix %+v; want a prefix over a gate unit, a diagonal and a gate unit, then the QFT", p, len(x.Units), pre)
		}
		if x.Units[2].Fused != nil || x.Units[2].Sched != nil {
			t.Errorf("P=%d: the spanned gate unit was planned at compile", p)
		}
		if len(pre.Clusters[0]) != n/2 {
			t.Errorf("P=%d: clusters %v, want the first at %d qubits", p, pre.Clusters, n/2)
		}
		join := x.Units[2].Lo + n + n/4 // the CNOT across the halves
		if len(pre.Rest) == 0 || pre.Rest[0] != join {
			t.Errorf("P=%d: remainder %v, want it to start at the joining CNOT, gate %d", p, pre.Rest, join)
		}
		if pre.Units <= 0 {
			t.Errorf("P=%d: the prefix takes %g units off its span", p, pre.Units)
		}
	}
}

// TestFreshRegisterMatrix holds every way a register can reach a Run to
// the circuit applied gate by gate from the same start state, at 1e-10
// and draw for draw, on one, two and four nodes, for a prefix of the first
// unit alone, for one carried through an op into the unit after it, and
// for one carried through a diagonal factor by factor:
// the product prefix fills exactly when the register is fresh — after New,
// Reset, a read of a gathered State, or a copy of a fresh register — and
// the call runs the prefix's whole span; otherwise every spanned unit runs
// its own lowering.
func TestFreshRegisterMatrix(t *testing.T) {
	const n = 8
	for _, w := range []struct {
		name string
		c    *circuit.Circuit
	}{{"unit 0", prefixWorkload(n)}, {"carried", carriedWorkload(n)}, {"factored", factoredWorkload(n)}} {
		for _, p := range []int{1, 2, 4} {
			freshMatrix(t, fmt.Sprintf("%s/P=%d", w.name, p), w.c, p)
		}
	}
}

// freshMatrix is TestFreshRegisterMatrix on one circuit and node count.
func freshMatrix(t *testing.T, name string, c *circuit.Circuit, p int) {
	n := c.NumQubits
	target := backend.Target{NumQubits: n, Kind: backend.Cluster, Nodes: p, FuseWidth: 3, Emulate: recognize.Auto}
	x, err := backend.Compile(c, target)
	if err != nil {
		t.Fatal(err)
	}
	pre := x.Units[0].Prefix
	if pre == nil || pre.End >= len(x.Units) {
		t.Fatalf("%s: %d units, prefix %+v; the workload needs a prefix and a unit after its span", name, len(x.Units), pre)
	}
	end := pre.End
	open := func(t *testing.T) backend.Backend {
		b, err := backend.New(x.Target)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	run := func(t *testing.T, b backend.Backend) bool {
		res, err := b.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		return res.Prefix.Filled
	}
	// runSplit runs units [0, mid) and then the rest, reporting whether
	// either call filled.
	runSplit := func(t *testing.T, b backend.Backend, mid int) bool {
		first, err := backend.RunUnitsFilled(b, x, 0, mid)
		if err != nil {
			t.Fatal(err)
		}
		second, err := backend.RunUnitsFilled(b, x, mid, len(x.Units))
		if err != nil {
			t.Fatal(err)
		}
		return first || second
	}
	// Each case prepares a backend, runs x and returns whether the fill
	// ran; start is the state the gate-by-gate reference starts from and
	// twice asks it to apply the circuit two times.
	type outcome struct {
		filled bool
		start  func(*statevec.State)
		twice  bool
	}
	kraus := gates.Matrix2{1, 0, 0, 0.6}
	cases := []struct {
		name   string
		filled bool
		do     func(t *testing.T, b backend.Backend) outcome
	}{
		{"after New", true, func(t *testing.T, b backend.Backend) outcome {
			return outcome{filled: run(t, b)}
		}},
		{"after Reset", true, func(t *testing.T, b backend.Backend) outcome {
			run(t, b)
			b.Reset()
			return outcome{filled: run(t, b)}
		}},
		{"twice", false, func(t *testing.T, b backend.Backend) outcome {
			run(t, b)
			return outcome{filled: run(t, b), twice: true}
		}},
		{"after State", p > 1, func(t *testing.T, b backend.Backend) outcome {
			// One node hands out the live shard, and a write through it
			// is a write to the register; several hand out a copy.
			b.State().ApplyGate(gates.H(2))
			if p > 1 {
				return outcome{filled: run(t, b)}
			}
			return outcome{filled: run(t, b), start: func(s *statevec.State) { s.ApplyGate(gates.H(2)) }}
		}},
		{"after ApplyGate", false, func(t *testing.T, b backend.Backend) outcome {
			b.ApplyGate(gates.X(n - 1))
			return outcome{filled: run(t, b), start: func(s *statevec.State) { s.ApplyGate(gates.X(n - 1)) }}
		}},
		{"after ApplyKraus", false, func(t *testing.T, b backend.Backend) outcome {
			// The branch leaves |0...0> as it was, but the register is
			// written and runs the spanned units.
			if mass := b.ApplyKraus(kraus, 1); mass != 1 {
				t.Fatalf("Kraus branch mass %g on |0...0>, want 1", mass)
			}
			return outcome{filled: run(t, b)}
		}},
		{"after CopyState from a fresh source", true, func(t *testing.T, b backend.Backend) outcome {
			run(t, b)
			if err := backend.CopyState(b, open(t)); err != nil {
				t.Fatal(err)
			}
			return outcome{filled: run(t, b)}
		}},
		{"after CopyState from a written source", false, func(t *testing.T, b backend.Backend) outcome {
			src := open(t)
			src.ApplyGate(gates.H(n - 1))
			if err := backend.CopyState(b, src); err != nil {
				t.Fatal(err)
			}
			return outcome{filled: run(t, b), start: func(s *statevec.State) { s.ApplyGate(gates.H(n - 1)) }}
		}},
		// A call that stops inside the span runs its units one by one.
		{"RunUnits(0, 1) then the rest", end == 1, func(t *testing.T, b backend.Backend) outcome {
			return outcome{filled: runSplit(t, b, 1)}
		}},
		{"RunUnits(0, End) then the rest", true, func(t *testing.T, b backend.Backend) outcome {
			return outcome{filled: runSplit(t, b, end)}
		}},
		{"RunUnits(0, End) after Reset from a run unit by unit", true, func(t *testing.T, b backend.Backend) outcome {
			runSplit(t, b, 1)
			b.Reset()
			return outcome{filled: runSplit(t, b, end)}
		}},
	}
	for _, tc := range cases {
		t.Run(name+"/"+tc.name, func(t *testing.T) {
			b := open(t)
			got := tc.do(t, b)
			if got.filled != tc.filled {
				t.Errorf("fill ran: %v, want %v", got.filled, tc.filled)
			}
			ref := statevec.New(n)
			if got.start != nil {
				got.start(ref)
			}
			c.Run(ref)
			if got.twice {
				c.Run(ref)
			}
			if d := b.State().MaxDiff(ref); d > 1e-10 {
				t.Fatalf("differs from the gate-by-gate state by %g", d)
			}
			const draws = 64
			want := ref.SampleMany(draws, rng.New(uint64(p)))
			for i, s := range b.SampleMany(draws, rng.New(uint64(p))) {
				if s != want[i] {
					t.Fatalf("draw %d is |%d>, gate by gate |%d>", i, s, want[i])
				}
			}
		})
	}
}

// TestDecodedPrefixIsCompiled holds Decode to Compile's lowering of a
// carried prefix: the prefix is never on the wire, so the decoder rebuilds
// it from the units — the same span, gate lists, clusters and vectors, and
// the same remainder plan and summary counts — and no spanned gate unit
// past the first is planned by either.
func TestDecodedPrefixIsCompiled(t *testing.T) {
	const n = 8
	for _, p := range []int{1, 2, 4} {
		x, err := backend.Compile(carriedWorkload(n), backend.Target{NumQubits: n, Kind: backend.Cluster, Nodes: p, FuseWidth: 3, Emulate: recognize.Auto})
		if err != nil {
			t.Fatal(err)
		}
		data, err := x.Encode()
		if err != nil {
			t.Fatal(err)
		}
		y, err := backend.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		a, b := x.Units[0].Prefix, y.Units[0].Prefix
		if b == nil || a.End != b.End || !slices.Equal(a.Index, b.Index) || !slices.Equal(a.Rest, b.Rest) || a.Units != b.Units {
			t.Fatalf("P=%d: decoded prefix %+v, compiled %+v", p, b, a)
		}
		for i := range a.Clusters {
			if !slices.Equal(a.Clusters[i], b.Clusters[i]) || !slices.Equal(a.Vectors[i], b.Vectors[i]) {
				t.Fatalf("P=%d: decoded cluster %d differs", p, i)
			}
		}
		if x.FusedBlocks != y.FusedBlocks || x.PlannedRemaps != y.PlannedRemaps || x.PlannedRounds != y.PlannedRounds ||
			len(y.Units[0].Fused.Blocks) != len(x.Units[0].Fused.Blocks) || y.Units[2].Fused != nil {
			t.Fatalf("P=%d: decoded plans differ from the compiled ones", p)
		}
	}
}

// TestSpannedUnitsPlanOnceConcurrently runs one carried executable from
// registers that are not fresh on four backends at once: each spanned
// gate unit's own lowering is planned on first use, by whichever run gets
// there first, and every run must read the same state. Run it under -race.
func TestSpannedUnitsPlanOnceConcurrently(t *testing.T) {
	const n, runs = 8, 4
	c := carriedWorkload(n)
	ref := statevec.New(n)
	ref.ApplyGate(gates.H(0))
	c.Run(ref)
	for _, p := range []int{1, 2} {
		x, err := backend.Compile(c, backend.Target{NumQubits: n, Kind: backend.Cluster, Nodes: p, FuseWidth: 3, Emulate: recognize.Auto})
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, runs)
		for range runs {
			go func() {
				b, err := backend.New(x.Target)
				if err != nil {
					errs <- err
					return
				}
				defer b.Close()
				b.ApplyGate(gates.H(0))
				res, err := b.Run(x)
				switch {
				case err != nil:
				case res.Prefix.Filled:
					err = fmt.Errorf("P=%d: a written register filled the prefix", p)
				case b.State().MaxDiff(ref) > 1e-10:
					err = fmt.Errorf("P=%d: differs from the gate-by-gate state by %g", p, b.State().MaxDiff(ref))
				}
				errs <- err
			}()
		}
		for range runs {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}
}

// TestSelectionPricesTheCarriedSpan holds the auto selection's predicted
// cost to a fresh run of a carried prefix: Selection.PrefixSaving is what
// the span's gate units save over the fill, plus the modelled cost of
// every op the prefix absorbed — those ops never run from |0...0>.
func TestSelectionPricesTheCarriedSpan(t *testing.T) {
	const n = 8
	x, err := backend.Compile(carriedWorkload(n), backend.Target{NumQubits: n, Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	p, sel := x.Units[0].Prefix, x.Selection
	if p == nil || p.End < 2 {
		t.Fatalf("auto compile carries no prefix past unit 0 (%d units)", len(x.Units))
	}
	m := perfmodel.Active()
	want := m.SweepSecs(p.Units, n) - m.FillSecs(p.Fill.Qubits())
	absorbed := 0
	for _, u := range x.Units[:p.End] {
		if u.Op == nil {
			continue
		}
		for _, v := range sel.Verdicts {
			if v.Lo == u.Lo && v.Hi == u.Hi {
				want += v.EmulateSecs
				absorbed++
			}
		}
	}
	if absorbed == 0 {
		t.Fatal("the span absorbs no op the selection priced")
	}
	if want <= 0 || math.Abs(sel.PrefixSaving-want) > 1e-12*want {
		t.Errorf("PrefixSaving %g s, want %g s", sel.PrefixSaving, want)
	}
}
