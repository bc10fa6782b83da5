package recognize_test

import (
	"testing"

	"repro/internal/bitops"
	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// TestArithmeticKernelMatchesPermutation is the property test of the
// arithmetic family: over random register placements — contiguous ones,
// where add, sub, addc and mul take the statevec.ApplyFieldAdd kernel, and
// scattered ones, which keep the general path, as div always does —
// Op.Apply must agree exactly with the op's own Permutation() applied
// through ApplyPermutation, and to 1e-10 with the gates it replaces, on a
// dense state (ancillas dirty).
func TestArithmeticKernelMatchesPermutation(t *testing.T) {
	src := rng.New(53)
	two := func(w uint) []uint { return []uint{w, w} }
	builders := map[string]struct {
		widths func(w uint) []uint
		build  func(c *circuit.Circuit, r []revlib.Register, spare []uint)
	}{
		"add": {two, func(c *circuit.Circuit, r []revlib.Register, s []uint) { revlib.Adder(c, r[0], r[1], s[0]) }},
		"sub": {two, func(c *circuit.Circuit, r []revlib.Register, s []uint) { revlib.Subtractor(c, r[0], r[1], s[0]) }},
		"addc": {two, func(c *circuit.Circuit, r []revlib.Register, s []uint) {
			revlib.AdderWithCarryOut(c, r[0], r[1], s[0], s[1])
		}},
		"mul": {func(w uint) []uint { return []uint{w, w, w} },
			func(c *circuit.Circuit, r []revlib.Register, s []uint) { revlib.Multiplier(c, r[0], r[1], r[2], s[0]) }},
		"div": {func(w uint) []uint { return []uint{2 * w, w, w} },
			func(c *circuit.Circuit, r []revlib.Register, s []uint) {
				revlib.Divider(c, revlib.DividerLayout{M: r[1].Width(), R: r[0], B: r[1], Q: r[2], BZ: s[0], CarryAnc: s[1]})
			}},
	}
	for trial := 0; trial < 60; trial++ {
		w := 1 + uint(src.Intn(3))
		for kind, b := range builders {
			widths := b.widths(w)
			n := 2 + uint(src.Intn(3))
			for _, rw := range widths {
				n += rw
			}
			regs, spare := circgen.Registers(src, n, widths, 2, trial%3 != 0)
			c := circuit.New(n)
			b.build(c, regs, spare)
			plan := recognize.Analyze(c, recognize.DefaultOptions(recognize.Annotated))
			ops := plan.Ops()
			if len(ops) != 1 || ops[0].Kind() != kind {
				t.Fatalf("%s regs=%v spare=%v: recognised %v\n%s", kind, regs, spare, plan.Stats(), plan.Describe())
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
				t.Fatalf("%s regs=%v spare=%v: Apply differs from Permutation() by %g", kind, regs, spare, d)
			}
			c.Run(gatesRef)
			if d := got.MaxDiff(gatesRef); d > eps {
				t.Fatalf("%s regs=%v spare=%v: Apply differs from the gates by %g", kind, regs, spare, d)
			}
		}
	}
}

// shiftAndAdd is revlib.Multiplier's action written out word by word: for
// each set bit k of a, the controlled adder of width m-k adds b's low bits
// plus the carry ancilla into c's top field. It is the loop Op.Permutation
// ran before the closed form c + a·(b + carry) replaced it, kept as the
// reference that form is held to.
func shiftAndAdd(a, b, c revlib.Register, carry uint) func(uint64) uint64 {
	read := func(i uint64, r revlib.Register) (v uint64) {
		for j, q := range r {
			v |= bitops.Bit(i, q) << uint(j)
		}
		return v
	}
	m := a.Width()
	return func(i uint64) uint64 {
		av, bv, cv, cin := read(i, a), read(i, b), read(i, c), bitops.Bit(i, carry)
		for k := uint(0); k < m; k++ {
			if (av>>k)&1 == 0 {
				continue
			}
			mask := bitops.Mask(m - k)
			hi := ((cv>>k)&mask + bv&mask + cin) & mask
			cv = cv&^(mask<<k) | hi<<k
		}
		for j, q := range c {
			i = bitops.SetBit(i, q, (cv>>uint(j))&1)
		}
		return i
	}
}

// TestMultiplyClosedForm holds the multiplier's closed form to the
// shift-and-add loop on every basis state — a set carry ancilla and a
// non-zero product register included — for m = 1..6, on the packed layout
// and on random contiguous and scattered ones; and at m = 2, where the
// support fits the verifier, to the brute-force action of revlib's gates.
func TestMultiplyClosedForm(t *testing.T) {
	src := rng.New(67)
	for m := uint(1); m <= 6; m++ {
		for layout := 0; layout < 5; layout++ {
			n := 3*m + 1
			l := revlib.NewMultiplierLayout(m)
			regs, carry := []revlib.Register{l.A, l.B, l.C}, l.CarryAnc
			if layout > 0 {
				n = 3*m + 1 + uint(src.Intn(3))
				var spare []uint
				regs, spare = circgen.Registers(src, n, []uint{m, m, m}, 1, layout%2 == 1)
				carry = spare[0]
			}
			c := circuit.New(n)
			revlib.Multiplier(c, regs[0], regs[1], regs[2], carry)
			ops := recognize.Analyze(c, recognize.DefaultOptions(recognize.Annotated)).Ops()
			if len(ops) != 1 || ops[0].Kind() != "mul" {
				t.Fatalf("m=%d regs=%v: multiplier not recognised", m, regs)
			}
			if m == 2 && !ops[0].Verified {
				t.Errorf("m=2 regs=%v: multiplier op not checked against its gates", regs)
			}
			f, _ := ops[0].Permutation()
			ref := shiftAndAdd(regs[0], regs[1], regs[2], carry)
			for i := uint64(0); i < 1<<n; i++ {
				if got, want := f(i), ref(i); got != want {
					t.Fatalf("m=%d regs=%v carry=%d: |%b> goes to |%b>, shift-and-add to |%b>", m, regs, carry, i, got, want)
				}
			}
		}
	}
}

// TestSubRegisterQFT runs the four Fourier variants on fields inside a
// wider register — where the transform batches over the other qubits and
// the noswap forms compose the field reversal as a permutation — against
// the gates, and checks that a field past the register end is skipped, not
// lowered.
func TestSubRegisterQFT(t *testing.T) {
	for _, tc := range []struct {
		name   string
		c      *circuit.Circuit
		n, pos uint
	}{
		{"qft", qft.Circuit(3), 6, 2},
		{"iqft", qft.InverseCircuit(4), 7, 3},
		{"qft-noswap", qft.CircuitNoSwap(3), 6, 1},
		{"iqft-noswap", qft.CircuitNoSwap(4).Dagger(), 7, 0},
		{"qft-noswap", qft.CircuitNoSwap(5), 8, 3},
	} {
		c := shiftedInto(tc.n, tc.c, tc.pos)
		c.Annotate(circuit.Region{Name: tc.name, Args: []uint64{uint64(tc.pos), uint64(tc.c.NumQubits)}, Lo: 0, Hi: c.Len()})
		d, plan := runBoth(t, c, recognize.Annotated, 71)
		requireOps(t, plan, map[string]int{"qft": 1})
		if d > eps {
			t.Errorf("%s on [%d,%d) of %d qubits diverges from the gates by %g", tc.name, tc.pos, tc.pos+tc.c.NumQubits, tc.n, d)
		}
	}
	c := shiftedInto(6, qft.Circuit(3), 3)
	c.Annotate(circuit.Region{Name: "qft", Args: []uint64{4, 3}, Lo: 0, Hi: c.Len()})
	if plan := recognize.Analyze(c, recognize.DefaultOptions(recognize.Annotated)); len(plan.Ops()) != 0 || len(plan.Skipped) != 1 {
		t.Errorf("field [4,7) of 6 qubits: %d ops, %d skipped, want the region skipped", len(plan.Ops()), len(plan.Skipped))
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
