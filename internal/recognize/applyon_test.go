package recognize_test

import (
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/experiments"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// TestApplyOnMatchesFullRegister holds Op.ApplyOn on a compact register —
// a cluster that holds the op's support and one qubit more, listed in
// ascending order — to Op.Apply on the whole register, over product
// states (the cluster's random vector times a random one-qubit state on
// every other qubit) at 1e-12: a diagonal run, a phase flip, a Fourier
// transform on a sub-register and a small adder, each as the matchers or
// the annotations find it.
func TestApplyOnMatchesFullRegister(t *testing.T) {
	const n = 9
	diagonal := circuit.New(n)
	diagonal.Append(gates.T(1), gates.CR(3, 4, 0.7), gates.Rz(6, 1.1), gates.S(3),
		gates.CZ(1, 6), gates.Phase(4, -0.4))

	flip := circuit.New(n)
	for _, q := range []uint{2, 5} {
		flip.Append(gates.X(q))
	}
	flip.Append(gates.Z(2).WithControls(5, 7))
	for _, q := range []uint{2, 5} {
		flip.Append(gates.X(q))
	}

	adder := circuit.New(n)
	revlib.Adder(adder, revlib.Seq(1, 2), revlib.Seq(4, 2), 7)

	for _, tc := range []struct {
		name  string
		c     *circuit.Circuit
		mode  recognize.Mode
		kind  string
		extra uint // the cluster's qubit outside the support
	}{
		{"diagonal", diagonal, recognize.Auto, "diagonal", 5},
		{"phaseflip", flip, recognize.Auto, "phaseflip", 3},
		{"qft on a sub-register", shiftedInto(n, stripRegions(qft.Circuit(4)), 2), recognize.Auto, "qft", 8},
		{"annotated inverse qft", shiftedInto(n, qft.InverseCircuit(3), 0).Annotate(circuit.Region{
			Name: "iqft", Args: []uint64{0, 3}, Lo: 0, Hi: qft.InverseCircuit(3).Len()}), recognize.Annotated, "qft", 6},
		{"adder", adder, recognize.Annotated, "add", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := recognize.Analyze(tc.c, recognize.DefaultOptions(tc.mode)).Ops()
			if len(ops) != 1 || ops[0].Kind() != tc.kind {
				t.Fatalf("recognised %v, want one %s op", ops, tc.kind)
			}
			op := ops[0]
			cluster := insertSorted(op.Support(), tc.extra)
			for seed := uint64(1); seed <= 3; seed++ {
				src := rng.New(seed)
				vec := statevec.NewRandom(uint(len(cluster)), src)
				singles := make([][2]complex128, n)
				for q := range singles {
					s := statevec.NewRandom(1, src).Amplitudes()
					singles[q] = [2]complex128{s[0], s[1]}
				}
				full := productState(n, cluster, vec.Amplitudes(), singles)
				op.Apply(full)
				op.ApplyOn(vec, cluster)
				if d := full.MaxDiff(productState(n, cluster, vec.Amplitudes(), singles)); d > 1e-12 {
					t.Fatalf("seed %d: the compact apply differs from the full register's by %g", seed, d)
				}
			}
		})
	}
}

// TestApplyOnRefusesForeignRegisters holds ApplyOn to its contract: a
// register missing a support qubit, and a reflection handed a register
// wider than its support — it would reflect about the wider uniform state —
// panic instead of computing something else.
func TestApplyOnRefusesForeignRegisters(t *testing.T) {
	grover := recognize.Analyze(experiments.GroverGateLevel(4, 5, 1), recognize.DefaultOptions(recognize.Annotated)).Ops()
	var reflect, flip *recognize.Op
	for _, op := range grover {
		switch op.Kind() {
		case "reflect":
			reflect = op
		case "phaseflip":
			flip = op
		}
	}
	if reflect == nil || flip == nil {
		t.Fatalf("Grover iteration recognised as %v, want a phase flip and a reflection", grover)
	}
	for _, tc := range []struct {
		name   string
		op     *recognize.Op
		qubits []uint
	}{
		{"support qubit missing", flip, []uint{0, 1, 2}},
		{"reflection on a wider register", reflect, []uint{0, 1, 2, 3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("ApplyOn did not panic")
				}
			}()
			tc.op.ApplyOn(statevec.New(uint(len(tc.qubits))), tc.qubits)
		})
	}
}

// insertSorted adds q to the ascending list qs.
func insertSorted(qs []uint, q uint) []uint {
	out := append(append([]uint(nil), qs...), q)
	slices.Sort(out)
	return out
}

// productState is the n-qubit product of vec on the cluster qubits (qubit
// cluster[t] as bit t) and singles[q] on every other qubit q.
func productState(n uint, cluster []uint, vec []complex128, singles [][2]complex128) *statevec.State {
	var in uint64
	for _, q := range cluster {
		in |= 1 << q
	}
	amps := make([]complex128, 1<<n)
	for i := range amps {
		var local uint64
		for t, q := range cluster {
			local |= uint64(i) >> q & 1 << t
		}
		a := vec[local]
		for q := uint(0); q < n; q++ {
			if in&(1<<q) == 0 {
				a *= singles[q][i>>q&1]
			}
		}
		amps[i] = a
	}
	st, err := statevec.FromAmplitudes(amps)
	if err != nil {
		panic(err)
	}
	return st
}
