package recognize

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"slices"
	"strings"
	"testing"

	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// shifted rebases every gate of c upward by pos: the materialised
// reference the QFT matcher compared windows with before its closed-form
// walk, kept as that walk's oracle.
func shifted(c *circuit.Circuit, pos uint) []gates.Gate {
	out := make([]gates.Gate, len(c.Gates))
	for i, g := range c.Gates {
		ng := g
		ng.Target += pos
		if len(g.Controls) > 0 {
			cs := make([]uint, len(g.Controls))
			for j, q := range g.Controls {
				cs[j] = q + pos
			}
			ng.Controls = cs
		}
		out[i] = ng
	}
	return out
}

// sameGate compares target, control set (order-insensitive) and matrix.
func sameGate(a, b gates.Gate) bool {
	if a.Target != b.Target || len(a.Controls) != len(b.Controls) {
		return false
	}
	var am, bm uint64
	for _, c := range a.Controls {
		am |= 1 << c
	}
	for _, c := range b.Controls {
		bm |= 1 << c
	}
	return am == bm && sameMatrix(a.Matrix, b.Matrix)
}

// matchWindow reports whether the circuit gates starting at i equal ref:
// the materialised comparison the matchers made before the reference walk,
// kept as the comparator's oracle.
func matchWindow(gs []gates.Gate, i, hi int, ref []gates.Gate) bool {
	if i+len(ref) > hi {
		return false
	}
	for k, r := range ref {
		if !sameGate(gs[i+k], r) {
			return false
		}
	}
	return true
}

// appendQFT appends the Fourier network q (built on qubits from 0) at field
// position pos, annotated with q's region moved there.
func appendQFT(c, q *circuit.Circuit, pos uint) {
	lo := c.Len()
	c.Append(shifted(q, pos)...)
	r := q.Regions[0]
	c.Annotate(circuit.Region{Name: r.Name, Args: []uint64{uint64(pos), r.Args[1]}, Lo: lo, Hi: c.Len()})
}

// referenceFamilies is every region family with a reference network: the
// widths of its registers per unit of w, its single qubits, the largest w
// the tests build, and its builder over placed registers. A Fourier family
// takes one contiguous register, its field.
var referenceFamilies = []struct {
	name  string
	regs  []uint
	aux   uint
	maxW  uint
	build func(c *circuit.Circuit, r []revlib.Register, aux []uint)
}{
	{"qft", []uint{1}, 0, 16, func(c *circuit.Circuit, r []revlib.Register, _ []uint) {
		appendQFT(c, qft.Circuit(r[0].Width()), r[0][0])
	}},
	{"iqft", []uint{1}, 0, 16, func(c *circuit.Circuit, r []revlib.Register, _ []uint) {
		appendQFT(c, qft.InverseCircuit(r[0].Width()), r[0][0])
	}},
	{"qft-noswap", []uint{1}, 0, 16, func(c *circuit.Circuit, r []revlib.Register, _ []uint) {
		appendQFT(c, qft.CircuitNoSwap(r[0].Width()), r[0][0])
	}},
	{"iqft-noswap", []uint{1}, 0, 16, func(c *circuit.Circuit, r []revlib.Register, _ []uint) {
		appendQFT(c, qft.CircuitNoSwap(r[0].Width()).Dagger(), r[0][0])
	}},
	{"add", []uint{1, 1}, 1, 6, func(c *circuit.Circuit, r []revlib.Register, aux []uint) {
		revlib.Adder(c, r[0], r[1], aux[0])
	}},
	{"sub", []uint{1, 1}, 1, 6, func(c *circuit.Circuit, r []revlib.Register, aux []uint) {
		revlib.Subtractor(c, r[0], r[1], aux[0])
	}},
	{"addc", []uint{1, 1}, 2, 6, func(c *circuit.Circuit, r []revlib.Register, aux []uint) {
		revlib.AdderWithCarryOut(c, r[0], r[1], aux[0], aux[1])
	}},
	{"mul", []uint{1, 1, 1}, 1, 4, func(c *circuit.Circuit, r []revlib.Register, aux []uint) {
		revlib.Multiplier(c, r[0], r[1], r[2], aux[0])
	}},
	{"div", []uint{2, 1, 1}, 2, 3, func(c *circuit.Circuit, r []revlib.Register, aux []uint) {
		revlib.Divider(c, revlib.DividerLayout{M: r[1].Width(), R: r[0], B: r[1], Q: r[2], BZ: aux[0], CarryAnc: aux[1]})
	}},
}

// familyWidths returns the widths of a family's registers at w, and the
// size of its support.
func familyWidths(regs []uint, aux, w uint) ([]uint, uint) {
	widths := make([]uint, len(regs))
	support := aux
	for i, r := range regs {
		widths[i] = r * w
		support += r * w
	}
	return widths, support
}

// referenceGates materialises the network op's walk hands out.
func referenceGates(op *Op) []gates.Gate {
	var gs []gates.Gate
	op.walkReference(nil, func(r refGate) bool {
		g := gates.Gate{Matrix: r.m, Target: r.target}
		for cm := r.controls; cm != 0; cm &= cm - 1 {
			g.Controls = append(g.Controls, uint(bits.TrailingZeros64(cm)))
		}
		gs = append(gs, g)
		return true
	})
	return gs
}

// TestCloseC pins the matchers' entry tolerance at matchEps: an offset of
// 0.9e-12 in any direction matches, 1.1e-12 does not, in every entry of a
// matrix, and a NaN or an infinity never matches, not even itself.
func TestCloseC(t *testing.T) {
	inside := []complex128{0.9e-12, -0.9e-12, complex(0, 0.9e-12), complex(0.6e-12, -0.6e-12)}
	outside := []complex128{1.1e-12, -1.1e-12, complex(0, -1.1e-12), complex(0.8e-12, 0.8e-12)}
	for _, base := range []gates.Matrix2{gates.MatH, gates.MatX, gates.MatT, {0, 0, 0, 0}} {
		for entry := range base {
			for _, d := range append(inside, outside...) {
				m := base
				m[entry] += d
				want := slices.Contains(inside, d)
				if got := closeC(m[entry], base[entry]); got != want {
					t.Errorf("closeC(%v, %v) = %v, want %v", m[entry], base[entry], got, want)
				}
				if got := sameMatrix(m, base); got != want {
					t.Errorf("sameMatrix with entry %d of %v offset by %v = %v, want %v", entry, base, d, got, want)
				}
			}
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, x := range []complex128{complex(nan, 0), complex(0, nan), complex(inf, 0), complex(-inf, 0),
		complex(0, inf), complex(0, -inf)} {
		for _, y := range []complex128{x, 0, 1} {
			if closeC(x, y) || closeC(y, x) {
				t.Errorf("closeC(%v, %v) matches", x, y)
			}
		}
		m := gates.MatH
		m[3] = x
		if sameMatrix(m, m) {
			t.Errorf("a matrix holding %v matches itself", x)
		}
	}
}

// TestReferenceNetworksMatchOps is the oracle that makes identity sound:
// for every family with a reference network, the network the comparator
// walks, run gate by gate, and the op's shortcut take one seeded random
// state to the same state within 1e-10 — at supports of up to 14 qubits,
// wider than the column walk reaches, on registers placed at nonzero
// offsets (and, for arithmetic, scattered). The walk must also be the
// revlib or qft builder's network, gate for gate.
func TestReferenceNetworksMatchOps(t *testing.T) {
	src := rng.New(36)
	covered := map[string][]uint{}
	refs := references{}
	for _, f := range referenceFamilies {
		fourier := strings.Contains(f.name, "qft")
		for w := uint(1); w <= f.maxW; w++ {
			widths, support := familyWidths(f.regs, f.aux, w)
			if support > 14 {
				break
			}
			n := support + 2
			regs, aux := circgen.Registers(src, n, widths, f.aux, fourier || w%2 == 0)
			c := circuit.New(n)
			f.build(c, regs, aux)
			if len(c.Regions) != 1 || c.Regions[0].Lo != 0 || c.Regions[0].Hi != c.Len() {
				t.Fatalf("%s w=%d: the builder annotated %+v over %d gates", f.name, w, c.Regions, c.Len())
			}
			op, err := parseRegion(n, c.Regions[0], nil)
			if err != nil {
				t.Fatalf("%s w=%d: %v", f.name, w, err)
			}
			what := fmt.Sprintf("%s w=%d on %v", f.name, w, c.Regions[0].Args)
			if !matchesReference(c.Gates, op, refs) {
				t.Fatalf("%s: the builder's network is not the walked reference", what)
			}
			net := circuit.New(n)
			net.Append(referenceGates(op)...)
			want := statevec.NewRandom(n, rng.New(uint64(support)))
			got := want.Clone()
			net.Run(want)
			op.Apply(got)
			if d := want.MaxDiff(got); !(d <= 1e-10) {
				t.Errorf("%s: the op differs from its reference network by %g", what, d)
			}
			covered[f.name] = append(covered[f.name], support)
		}
	}
	for _, f := range referenceFamilies {
		if !slices.ContainsFunc(covered[f.name], func(s uint) bool { return s >= 9 }) {
			t.Errorf("%s: no support of 9-14 qubits among %v", f.name, covered[f.name])
		}
	}
}

// TestMatchedOpsAreTheirReference holds the matchers to the identity
// Analyze credits them with: every QFT, add, addc and mul op found in
// stripped circuits — the four Fourier shapes at offsets, circgen's
// arithmetic and QFT ladders — is its reference network by the
// comparator.
func TestMatchedOpsAreTheirReference(t *testing.T) {
	var circuits []*circuit.Circuit
	for _, f := range referenceFamilies[:4] {
		for _, w := range []uint{2, 5, 11} {
			c := circuit.New(w + 3)
			f.build(c, []revlib.Register{revlib.Seq(2, w)}, nil)
			circuits = append(circuits, c)
		}
	}
	for seed := uint64(1); seed <= 4; seed++ {
		circuits = append(circuits, circgen.Arithmetic(rng.New(seed), 12, 8),
			circgen.QFTLadders(rng.New(seed), 9, 2))
	}
	kinds := map[string]int{}
	refs := references{}
	for _, c := range circuits {
		stripped := &circuit.Circuit{NumQubits: c.NumQubits, Gates: c.Gates}
		for _, op := range analyze(stripped, Auto, false).Ops() {
			if !op.matchedAsReference() {
				continue
			}
			kinds[op.Kind()]++
			if !matchesReference(stripped.Gates, op, refs) {
				t.Errorf("%v: matched, but not its reference network", op)
			}
		}
	}
	for _, k := range []string{"qft", "add", "addc", "mul"} {
		if kinds[k] == 0 {
			t.Errorf("no matched %s op (found %v)", k, kinds)
		}
	}
}

// FuzzReferenceWindow holds the comparator to the materialised oracle: a
// family, a width and a register offset pick a builder network, shifted
// into place and annotated; a mutation — none, drop, duplicate, swap with
// the next, rephase by 1e-3…1e-13, or retarget one gate — is applied to
// the window. matchesReference must agree with matchWindow against
// shifted(builder…), both building the network afresh and taking it from a
// cache every input of the run shares — whose network for the op's form
// must be the one built afresh, so two forms that share a key fail; for
// the Fourier shapes the matcher's open-ended qftShape.match must agree
// with it too.
func FuzzReferenceWindow(f *testing.F) {
	for fam := range referenceFamilies {
		f.Add(uint8(fam), uint8(3), uint8(1), uint8(0), uint8(0), uint8(0))
		f.Add(uint8(fam), uint8(2), uint8(2), uint8(4), uint8(7), uint8(10))
	}
	f.Add(uint8(1), uint8(9), uint8(3), uint8(3), uint8(2), uint8(0))
	f.Add(uint8(8), uint8(2), uint8(0), uint8(5), uint8(40), uint8(1))
	refs := references{}
	f.Fuzz(func(t *testing.T, family, width, offset, mutation, at, param uint8) {
		fam := referenceFamilies[int(family)%len(referenceFamilies)]
		w := 1 + uint(width)%fam.maxW
		off := uint(offset) % 4
		widths, support := familyWidths(fam.regs, fam.aux, w)
		b := circuit.New(support)
		var regs []revlib.Register
		next := uint(0)
		for _, rw := range widths {
			regs = append(regs, revlib.Seq(next, rw))
			next += rw
		}
		fam.build(b, regs, []uint{next, next + 1}[:fam.aux])
		ref := shifted(b, off)
		region := b.Regions[0]
		region.Args = slices.Clone(region.Args)
		if strings.Contains(fam.name, "qft") {
			region.Args[0] += uint64(off)
		} else {
			for i := range region.Args[1:] {
				region.Args[1+i] += uint64(off)
			}
		}
		n := off + support + 1

		win := slices.Clone(ref)
		k := int(at) % len(win)
		switch mutation % 6 {
		case 1:
			win = slices.Delete(win, k, k+1)
		case 2:
			win = slices.Insert(win, k, win[k])
		case 3:
			if k+1 < len(win) {
				win[k], win[k+1] = win[k+1], win[k]
			}
		case 4:
			ph := cmplx.Exp(complex(0, math.Pow(10, -3-float64(param%11))))
			win[k].Matrix[1] *= ph
			win[k].Matrix[3] *= ph
		case 5:
			win[k].Target = (win[k].Target + 1 + uint(param)) % n
		}
		gs := append([]gates.Gate{gates.H(0)}, win...)
		gs = append(gs, gates.H(n-1))
		region.Lo, region.Hi = 1, 1+len(win)
		op, err := parseRegion(n, region, nil)
		if err != nil {
			t.Fatalf("%s w=%d at %d: %v", fam.name, w, off, err)
		}
		want := len(ref) == len(win) && matchWindow(gs, op.Lo, op.Hi, ref)
		for _, cache := range []references{nil, refs} {
			if got := matchesReference(gs, op, cache); got != want {
				t.Fatalf("%s w=%d at %d, mutation %d at gate %d, cached %v: comparator says %v, materialised %v",
					fam.name, w, off, mutation%6, k, cache != nil, got, want)
			}
		}
		if op.kind != opQFT {
			cached, built := refs.network(op), op.builtReference()
			if len(cached) != len(built) || !matchWindow(cached, 0, len(cached), built) {
				t.Fatalf("%s w=%d at %d: the cached network of form %x is another form's", fam.name, w, off, op.formKey(nil))
			}
		}
		if op.kind == opQFT {
			s := qftShape{pos: op.pos, w: op.width, inverse: op.inverse, noswap: op.noswap}
			end, ok := s.match(gs, op.Lo, len(gs))
			wantOK := matchWindow(gs, op.Lo, len(gs), ref)
			if ok != wantOK || ok && end != op.Lo+len(ref) {
				t.Fatalf("%s w=%d at %d, mutation %d at gate %d: match ends at %d (%v), materialised %v over %d gates",
					fam.name, w, off, mutation%6, k, end, ok, wantOK, len(ref))
			}
		}
	})
}

// TestReferenceCacheKeysEveryQubit holds references.network to a fresh
// build on ops that differ in one qubit: each arithmetic family's builder
// region at width 2, then that region with each qubit argument in turn
// moved to the one qubit the region leaves free. Every variant shares one
// cache with the original and must get its own network back, so a form
// key that leaves out a register or an ancilla fails.
func TestReferenceCacheKeysEveryQubit(t *testing.T) {
	const w = 2
	for _, fam := range referenceFamilies {
		if strings.Contains(fam.name, "qft") {
			continue
		}
		widths, support := familyWidths(fam.regs, fam.aux, w)
		free := support
		b := circuit.New(support + 1)
		var regs []revlib.Register
		next := uint(0)
		for _, rw := range widths {
			regs = append(regs, revlib.Seq(next, rw))
			next += rw
		}
		fam.build(b, regs, []uint{next, next + 1}[:fam.aux])
		region := b.Regions[0]
		refs := references{}
		for j := range region.Args {
			v := region
			v.Args = slices.Clone(region.Args)
			if j > 0 {
				v.Args[j] = uint64(free) // Args[0] is the width: j = 0 is the region itself
			}
			op, err := parseRegion(free+1, v, nil)
			if err != nil {
				t.Fatalf("%s with argument %d at qubit %d: %v", fam.name, j, free, err)
			}
			cached, built := refs.network(op), op.builtReference()
			if len(cached) != len(built) || !matchWindow(cached, 0, len(cached), built) {
				t.Errorf("%s with argument %d at qubit %d: the cache gave another form's network", fam.name, j, free)
			}
		}
		if len(refs) != len(region.Args) {
			t.Errorf("%s: %d forms cached for %d regions", fam.name, len(refs), len(region.Args))
		}
	}
}

// brickworkShape is the benchmark's brickwork filler: a rotation about a
// random axis on every qubit, then CNOT or CZ on neighbouring pairs at
// alternating offsets.
func brickworkShape(src *rng.Source, n uint, layers int) *circuit.Circuit {
	c := circuit.New(n)
	for l := 0; l < layers; l++ {
		for q := uint(0); q < n; q++ {
			theta := 0.1 + src.Float64()*6
			c.Append([]gates.Gate{gates.Rx(q, theta), gates.Ry(q, theta), gates.Rz(q, theta)}[src.Intn(3)])
		}
		for q := uint(l % 2); q+1 < n; q += 2 {
			if src.Intn(2) == 0 {
				c.Append(gates.CNOT(q, q+1))
			} else {
				c.Append(gates.CZ(q, q+1))
			}
		}
	}
	return c
}

// TestMatchingAllocations pins what recognition allocates on gates it
// cannot use: matchAt at every CNOT of a 14-qubit brickwork allocates
// nothing (the QFT matcher's candidates are walked, not built), and
// Analyze over a brickwork of 40 layers allocates no more than over 20.
func TestMatchingAllocations(t *testing.T) {
	c := brickworkShape(rng.New(5), 14, 20)
	opts := DefaultOptions(Auto)
	var cnots []int
	for i, g := range c.Gates {
		if isCNOT(g) {
			cnots = append(cnots, i)
		}
	}
	if len(cnots) < 40 {
		t.Fatalf("only %d CNOTs in the brickwork", len(cnots))
	}
	matched := 0
	allocs := testing.AllocsPerRun(5, func() {
		for _, i := range cnots {
			if matchAt(c, i, c.Len()) != nil {
				matched++
			}
		}
	})
	if matched != 0 || allocs != 0 {
		t.Errorf("matchAt at %d CNOTs: %d ops, %v allocations; want none", len(cnots), matched, allocs)
	}

	counts := map[int]float64{}
	for _, layers := range []int{20, 40} {
		bw := circgen.Brickwork(rng.New(6), 14, layers)
		counts[layers] = testing.AllocsPerRun(3, func() {
			if ops := Analyze(bw, opts).Ops(); len(ops) != 0 {
				t.Fatalf("%d layers: recognised %v in a brickwork", layers, ops)
			}
		})
	}
	if counts[40] > counts[20] {
		t.Errorf("Analyze allocates %v times at 20 layers and %v at 40", counts[20], counts[40])
	}
}

// TestAnalyzeRungs checks which rung settles each kind of region, and that
// Verified records it: identity at any width (annotated or matched), the
// column walk for a region without identity up to MaxVerifyQubits (a
// daggered adder proved, a lying adder refuted), and above it no check (a
// wider lying adder kept unverified, a wide diagonal run unverified).
func TestAnalyzeRungs(t *testing.T) {
	lyingAdder := func(w uint) *circuit.Circuit {
		n := 2*w + 2
		sub := circuit.New(n)
		revlib.Adder(sub, revlib.Seq(0, w), revlib.Seq(w, w), 2*w)
		c := circuit.New(n)
		c.Append(sub.Gates[:len(sub.Gates)/2]...)
		c.Append(gates.X(1))
		c.Append(sub.Gates[len(sub.Gates)/2:]...)
		return c.Annotate(circuit.Region{Name: "add", Args: sub.Regions[0].Args, Lo: 0, Hi: c.Len()})
	}
	diagRun := func(n uint) *circuit.Circuit {
		c := circuit.New(n)
		for q := uint(0); q < n; q++ {
			c.Append(gates.T(q), gates.CR(q, (q+1)%n, 0.3+float64(q)))
		}
		return c
	}
	adder := circuit.New(7)
	revlib.Adder(adder, revlib.Seq(0, 3), revlib.Seq(3, 3), 6)
	mul := revlib.BuildMultiplier(revlib.NewMultiplierLayout(3))
	stripped := func(c *circuit.Circuit) *circuit.Circuit {
		return &circuit.Circuit{NumQubits: c.NumQubits, Gates: c.Gates}
	}
	for _, tc := range []struct {
		name     string
		c        *circuit.Circuit
		kept     bool
		verified bool
		identity bool
	}{
		{"annotated qft w=12", qft.Circuit(12), true, true, true},
		{"matched iqft w=12", stripped(qft.InverseCircuit(12)), true, true, true},
		{"annotated mul w=10", mul, true, true, true},
		{"matched mul w=10", stripped(mul), true, true, true},
		{"daggered adder w=7", adder.Dagger(), true, true, false},
		{"lying adder w=8", lyingAdder(3), false, false, false},
		{"lying adder w=10", lyingAdder(4), true, false, false},
		{"diagonal run w=6", diagRun(6), true, true, false},
		{"diagonal run w=10", diagRun(10), true, false, false},
	} {
		plan := Analyze(tc.c, DefaultOptions(Auto))
		ops := plan.Ops()
		if !tc.kept {
			if len(ops) != 0 || len(plan.Skipped) != 1 || !strings.Contains(plan.Skipped[0].Reason, "verification failed") {
				t.Errorf("%s: ops %v, skipped %+v; want it refuted", tc.name, ops, plan.Skipped)
			}
			continue
		}
		if len(ops) != 1 || ops[0].GateCount() != tc.c.Len() {
			t.Errorf("%s: want one op over all %d gates, got %v", tc.name, tc.c.Len(), ops)
			continue
		}
		if ops[0].Verified != tc.verified {
			t.Errorf("%s: Verified = %v, want %v", tc.name, ops[0].Verified, tc.verified)
		}
		if got := matchesReference(tc.c.Gates, ops[0], nil); got != tc.identity {
			t.Errorf("%s: identity with its reference = %v, want %v", tc.name, got, tc.identity)
		}
	}
}
