package revlib_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// runOnBasis executes circ on basis state |in> and returns the resulting
// basis index (the circuits here are permutations, so the output must be a
// single basis state).
func runOnBasis(t *testing.T, circ *circuit.Circuit, in uint64) uint64 {
	t.Helper()
	st := statevec.NewBasis(circ.NumQubits, in)
	circ.Run(st)
	out := uint64(0)
	found := false
	for i, a := range st.Amplitudes() {
		p := real(a)*real(a) + imag(a)*imag(a)
		if p > 0.5 {
			if found {
				t.Fatalf("output not a basis state")
			}
			out = uint64(i)
			found = true
		} else if p > 1e-18 {
			t.Fatalf("output has spurious amplitude %g at %d", p, i)
		}
	}
	if !found {
		t.Fatal("no output basis state found")
	}
	return out
}

func TestAdderExhaustive(t *testing.T) {
	// All operand pairs for small widths: (a, b) -> (a, a+b mod 2^w).
	for w := uint(1); w <= 4; w++ {
		circ := circuit.New(2*w + 1)
		a, b := revlib.Seq(0, w), revlib.Seq(w, w)
		anc := 2 * w
		revlib.Adder(circ, a, b, anc)
		for av := uint64(0); av < 1<<w; av++ {
			for bv := uint64(0); bv < 1<<w; bv++ {
				in := av | bv<<w
				out := runOnBasis(t, circ, in)
				wantB := (av + bv) & ((1 << w) - 1)
				want := av | wantB<<w
				if out != want {
					t.Fatalf("w=%d: add(%d,%d): got %b want %b", w, av, bv, out, want)
				}
			}
		}
	}
}

func TestAdderRestoresAncillaFromDirtyB(t *testing.T) {
	// Ancilla must end clean for every input (it is the carry-in = 0).
	w := uint(3)
	circ := circuit.New(2*w + 1)
	revlib.Adder(circ, revlib.Seq(0, w), revlib.Seq(w, w), 2*w)
	for in := uint64(0); in < 1<<(2*w); in++ {
		out := runOnBasis(t, circ, in)
		if out>>(2*w) != 0 {
			t.Fatalf("ancilla dirty for input %b", in)
		}
	}
}

func TestAdderWithCarryOut(t *testing.T) {
	w := uint(3)
	circ := circuit.New(2*w + 2)
	addWithCarry := func() {
		revlib.AdderWithCarryOut(circ, revlib.Seq(0, w), revlib.Seq(w, w), 2*w, 2*w+1)
	}
	addWithCarry()
	for av := uint64(0); av < 1<<w; av++ {
		for bv := uint64(0); bv < 1<<w; bv++ {
			in := av | bv<<w
			out := runOnBasis(t, circ, in)
			sum := av + bv
			want := av | (sum&7)<<w | (sum>>w)<<(2*w+1)
			if out != want {
				t.Fatalf("carry add(%d,%d): got %b want %b", av, bv, out, want)
			}
		}
	}
}

func TestSubtractorExhaustive(t *testing.T) {
	w := uint(3)
	circ := circuit.New(2*w + 1)
	revlib.Subtractor(circ, revlib.Seq(0, w), revlib.Seq(w, w), 2*w)
	for av := uint64(0); av < 1<<w; av++ {
		for bv := uint64(0); bv < 1<<w; bv++ {
			in := av | bv<<w
			out := runOnBasis(t, circ, in)
			wantB := (bv - av) & 7
			want := av | wantB<<w
			if out != want {
				t.Fatalf("sub(%d,%d): got %b want %b", av, bv, out, want)
			}
		}
	}
}

func TestControlledAdder(t *testing.T) {
	w := uint(2)
	// Layout: a[2] b[2] anc ctl.
	circ := circuit.New(2*w + 2)
	revlib.ControlledAdder(circ, revlib.Seq(0, w), revlib.Seq(w, w), 2*w, 2*w+1)
	for ctl := uint64(0); ctl <= 1; ctl++ {
		for av := uint64(0); av < 1<<w; av++ {
			for bv := uint64(0); bv < 1<<w; bv++ {
				in := av | bv<<w | ctl<<(2*w+1)
				out := runOnBasis(t, circ, in)
				wantB := bv
				if ctl == 1 {
					wantB = (av + bv) & 3
				}
				want := av | wantB<<w | ctl<<(2*w+1)
				if out != want {
					t.Fatalf("ctl=%d add(%d,%d): got %b want %b", ctl, av, bv, out, want)
				}
			}
		}
	}
}

func TestMultiplierExhaustive(t *testing.T) {
	for _, m := range []uint{2, 3} {
		l := revlib.NewMultiplierLayout(m)
		circ := revlib.BuildMultiplier(l)
		mask := uint64(1)<<m - 1
		for av := uint64(0); av <= mask; av++ {
			for bv := uint64(0); bv <= mask; bv++ {
				in := av | bv<<m // c = 0, ancilla = 0
				out := runOnBasis(t, circ, in)
				want := av | bv<<m | ((av*bv)&mask)<<(2*m)
				if out != want {
					t.Fatalf("m=%d: mul(%d,%d): got %b want %b", m, av, bv, out, want)
				}
			}
		}
	}
}

func TestMultiplierOnDirtyC(t *testing.T) {
	// The circuit computes c += a*b for any initial c.
	m := uint(2)
	l := revlib.NewMultiplierLayout(m)
	circ := revlib.BuildMultiplier(l)
	mask := uint64(3)
	for av := uint64(0); av <= mask; av++ {
		for bv := uint64(0); bv <= mask; bv++ {
			for cv := uint64(0); cv <= mask; cv++ {
				in := av | bv<<m | cv<<(2*m)
				out := runOnBasis(t, circ, in)
				want := av | bv<<m | ((cv+av*bv)&mask)<<(2*m)
				if out != want {
					t.Fatalf("mul(%d,%d)+%d: got %b want %b", av, bv, cv, out, want)
				}
			}
		}
	}
}

func TestDividerExhaustive(t *testing.T) {
	for _, m := range []uint{2, 3} {
		l := revlib.NewDividerLayout(m)
		circ := revlib.BuildDivider(l)
		mask := uint64(1)<<m - 1
		for av := uint64(0); av <= mask; av++ {
			for bv := uint64(1); bv <= mask; bv++ { // divisor != 0
				in := av | bv<<(2*m) // R low half = a, rest 0
				out := runOnBasis(t, circ, in)
				r := av % bv
				q := av / bv
				want := r | bv<<(2*m) | q<<(3*m)
				if out != want {
					t.Fatalf("m=%d: div(%d,%d): got %b want %b (r=%d q=%d)",
						m, av, bv, out, want, r, q)
				}
			}
		}
	}
}

func TestDividerWorkQubitsClean(t *testing.T) {
	// High half of R and the two ancillas must return to |0> for every
	// valid input — the uncomputation guarantee.
	m := uint(3)
	l := revlib.NewDividerLayout(m)
	circ := revlib.BuildDivider(l)
	mask := uint64(7)
	for av := uint64(0); av <= mask; av++ {
		for bv := uint64(1); bv <= mask; bv++ {
			out := runOnBasis(t, circ, av|bv<<(2*m))
			if (out>>m)&mask != 0 {
				t.Fatalf("work qubits dirty: %b", out)
			}
			if out>>(4*m) != 0 {
				t.Fatalf("ancillas dirty: %b", out)
			}
		}
	}
}

func TestComparatorExhaustive(t *testing.T) {
	w := uint(3)
	// Layout: a[3] b[3] anc target.
	circ := circuit.New(2*w + 2)
	revlib.Comparator(circ, revlib.Seq(0, w), revlib.Seq(w, w), 2*w, 2*w+1)
	for av := uint64(0); av < 1<<w; av++ {
		for bv := uint64(0); bv < 1<<w; bv++ {
			in := av | bv<<w
			out := runOnBasis(t, circ, in)
			want := in
			if av < bv {
				want |= 1 << (2*w + 1)
			}
			if out != want {
				t.Fatalf("cmp(%d,%d): got %b want %b", av, bv, out, want)
			}
		}
	}
}

func TestArithmeticOnSuperposition(t *testing.T) {
	// The adder must act linearly: running it on a random superposition
	// must equal permuting the amplitudes classically.
	src := rng.New(77)
	w := uint(3)
	n := 2*w + 1
	circ := circuit.New(n)
	revlib.Adder(circ, revlib.Seq(0, w), revlib.Seq(w, w), 2*w)

	st := statevec.NewRandom(n, src)
	want := st.Clone()
	want.ApplyPermutation(func(i uint64) uint64 {
		if i>>(2*w) != 0 {
			// Ancilla set: the adder still defines some permutation there;
			// mirror it by brute force via the circuit itself on that
			// basis state.
			return adderPermutation(i, w)
		}
		a := i & 7
		b := (i >> w) & 7
		return a | ((a+b)&7)<<w
	})
	got := st.Clone()
	circ.Run(got)
	if d := got.MaxDiff(want); d > 1e-10 {
		t.Fatalf("superposition add differs from classical permutation: %g", d)
	}
}

// adderPermutation computes the Cuccaro adder's action on a basis state
// with arbitrary ancilla value by word-level emulation of the MAJ/UMA
// sweeps (used only to specify expected behaviour on invalid inputs).
func adderPermutation(i uint64, w uint) uint64 {
	bit := func(x uint64, k uint) uint64 { return (x >> k) & 1 }
	set := func(x uint64, k uint, v uint64) uint64 { return x&^(1<<k) | v<<k }
	// Qubit layout: a = bits [0,w), b = bits [w,2w), anc = bit 2w.
	type q = uint
	maj := func(s uint64, c, b, a q) uint64 {
		s = set(s, b, bit(s, b)^bit(s, a))
		s = set(s, c, bit(s, c)^bit(s, a))
		s = set(s, a, bit(s, a)^(bit(s, c)&bit(s, b)))
		return s
	}
	uma := func(s uint64, c, b, a q) uint64 {
		s = set(s, a, bit(s, a)^(bit(s, c)&bit(s, b)))
		s = set(s, c, bit(s, c)^bit(s, a))
		s = set(s, b, bit(s, b)^bit(s, c))
		return s
	}
	s := i
	anc := q(2 * w)
	carry := anc
	for k := uint(0); k < w; k++ {
		s = maj(s, carry, q(w+k), q(k))
		carry = q(k)
	}
	for k := int(w) - 1; k >= 0; k-- {
		prev := anc
		if k > 0 {
			prev = q(k - 1)
		}
		s = uma(s, prev, q(w+uint(k)), q(uint(k)))
	}
	return s
}
