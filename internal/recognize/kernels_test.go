package recognize_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/recognize"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// placeRegisters draws two disjoint w-qubit registers and two spare qubits
// on an n-qubit register. Contiguous placements put each register on a run
// of consecutive qubits, in either order and with the spares anywhere
// else; the others shuffle all the qubits.
func placeRegisters(src *rng.Source, n, w uint, contiguous bool) (a, b revlib.Register, spare [2]uint) {
	if !contiguous {
		perm := src.Perm(int(n))
		for j := uint(0); j < w; j++ {
			a = append(a, uint(perm[j]))
			b = append(b, uint(perm[w+j]))
		}
		return a, b, [2]uint{uint(perm[2*w]), uint(perm[2*w+1])}
	}
	for {
		aPos, bPos := uint(src.Intn(int(n-w+1))), uint(src.Intn(int(n-w+1)))
		if aPos+w > bPos && bPos+w > aPos {
			continue
		}
		used := map[uint]bool{}
		for j := uint(0); j < w; j++ {
			used[aPos+j], used[bPos+j] = true, true
		}
		var free []uint
		for q := uint(0); q < n; q++ {
			if !used[q] {
				free = append(free, q)
			}
		}
		if len(free) < 2 {
			continue
		}
		p := src.Perm(len(free))
		return revlib.Seq(aPos, w), revlib.Seq(bPos, w), [2]uint{free[p[0]], free[p[1]]}
	}
}

// TestArithmeticKernelMatchesPermutation is the property test of the
// closure-free add/sub/addc path: over random register placements —
// contiguous ones, which take the statevec.ApplyFieldAdd kernel, and
// scattered ones, which keep the general path — Op.Apply must agree
// exactly with the op's own Permutation() applied through
// ApplyPermutation, and to 1e-10 with the gates it replaces.
func TestArithmeticKernelMatchesPermutation(t *testing.T) {
	src := rng.New(53)
	builders := map[string]func(c *circuit.Circuit, a, b revlib.Register, spare [2]uint){
		"add": func(c *circuit.Circuit, a, b revlib.Register, s [2]uint) { revlib.Adder(c, a, b, s[0]) },
		"sub": func(c *circuit.Circuit, a, b revlib.Register, s [2]uint) { revlib.Subtractor(c, a, b, s[0]) },
		"addc": func(c *circuit.Circuit, a, b revlib.Register, s [2]uint) {
			revlib.AdderWithCarryOut(c, a, b, s[0], s[1])
		},
	}
	for trial := 0; trial < 60; trial++ {
		w := 1 + uint(src.Intn(3))
		n := 2*w + 2 + uint(src.Intn(3))
		a, b, spare := placeRegisters(src, n, w, trial%3 != 0)
		for kind, build := range builders {
			c := circuit.New(n)
			build(c, a, b, spare)
			plan := recognize.Analyze(c, recognize.DefaultOptions(recognize.Annotated))
			ops := plan.Ops()
			if len(ops) != 1 || ops[0].Kind() != kind {
				t.Fatalf("%s a=%v b=%v spare=%v: recognised %v\n%s", kind, a, b, spare, plan.Stats(), plan.Describe())
			}
			f, ok := ops[0].Permutation()
			if !ok {
				t.Fatalf("%s: no permutation", kind)
			}
			init := statevec.NewRandom(n, src)
			got, want, gatesRef := init.Clone(), init.Clone(), init.Clone()
			ops[0].Apply(got)
			want.ApplyPermutation(f)
			if d := got.MaxDiff(want); d != 0 {
				t.Fatalf("%s a=%v b=%v spare=%v: Apply differs from Permutation() by %g", kind, a, b, spare, d)
			}
			for _, g := range c.Gates {
				gatesRef.ApplyGate(g)
			}
			if d := got.MaxDiff(gatesRef); d > eps {
				t.Fatalf("%s a=%v b=%v spare=%v: Apply differs from the gates by %g", kind, a, b, spare, d)
			}
		}
	}
}

// TestWideDiagonalWindows runs recognised diagonal runs too wide for the
// block kernel — 9 to 16 qubits, laid out as one, two and three runs of
// consecutive qubits — against the gates they replace.
func TestWideDiagonalWindows(t *testing.T) {
	src := rng.New(59)
	const n = 18
	for _, tc := range []struct {
		w    uint
		runs [][2]uint // (first qubit, length) of each run
	}{
		{9, [][2]uint{{0, 9}}},
		{14, [][2]uint{{3, 14}}},
		{16, [][2]uint{{2, 16}}},
		{9, [][2]uint{{0, 4}, {6, 5}}},
		{12, [][2]uint{{1, 1}, {5, 11}}},
		{16, [][2]uint{{0, 8}, {10, 8}}},
		{10, [][2]uint{{0, 3}, {5, 3}, {10, 4}}},
		{13, [][2]uint{{2, 1}, {4, 1}, {7, 11}}},
		{16, [][2]uint{{0, 6}, {7, 5}, {13, 5}}},
	} {
		var qs []uint
		for _, r := range tc.runs {
			for j := uint(0); j < r[1]; j++ {
				qs = append(qs, r[0]+j)
			}
		}
		c := circuit.New(n)
		// A chain touches every qubit of the window, then random pairs.
		for j := 1; j < len(qs); j++ {
			c.Append(gates.CR(qs[j-1], qs[j], 0.1+src.Float64()))
		}
		for i := 0; i < 3*len(qs); i++ {
			p := src.Perm(len(qs))
			c.Append(gates.CR(qs[p[0]], qs[p[1]], 0.1+src.Float64()), gates.Rz(qs[p[2]], 0.1+src.Float64()))
		}
		d, plan := runBoth(t, c, recognize.Auto, 61)
		ops := plan.Ops()
		if len(ops) != 1 || ops[0].Kind() != "diagonal" || uint(len(ops[0].Support())) != tc.w {
			t.Fatalf("window %v: recognised %v, want one diagonal of width %d\n%s", tc.runs, plan.Stats(), tc.w, plan.Describe())
		}
		if d > eps {
			t.Errorf("window %v: diagonal emulation diverges from the gates by %g", tc.runs, d)
		}
	}
}
