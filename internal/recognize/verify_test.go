package recognize

import (
	"fmt"
	"math"
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

// verifyOp is the check Analyze makes of one op, without the memo: the
// region's op against its own gates (region.holds). It returns (keep,
// checked) as verifyOnce does.
func verifyOp(c *circuit.Circuit, op *Op, maxQubits uint) (keep, checked bool) {
	r, checked := compactRegion(c, op, maxQubits)
	if r == nil {
		return !checked, checked
	}
	return r.holds(), true
}

// verifyOpDense is the check verifyOp replaced, kept as its oracle: every
// basis input gets two fresh states, one run through every gate over all
// 2^w amplitudes, one through the op, compared with MaxDiff. It costs
// gates·4^w, and MaxDiff ignores a NaN.
func verifyOpDense(c *circuit.Circuit, op *Op, maxQubits uint) (keep, checked bool) {
	support := op.support()
	w := uint(len(support))
	if w == 0 || w > maxQubits {
		return true, false
	}
	var mask uint64
	rank := make(map[uint]uint, w)
	for i, q := range support {
		mask |= 1 << q
		rank[q] = uint(i)
	}
	for _, g := range c.Gates[op.Lo:op.Hi] {
		for _, q := range g.Qubits() {
			if mask&(1<<q) == 0 {
				return false, true
			}
		}
	}
	compact := op.remapped(func(q uint) uint { return rank[q] })
	compactGates := make([]gates.Gate, 0, op.Hi-op.Lo)
	for _, g := range c.Gates[op.Lo:op.Hi] {
		ng := g
		ng.Target = rank[g.Target]
		if len(g.Controls) > 0 {
			cs := make([]uint, len(g.Controls))
			for j, q := range g.Controls {
				cs[j] = rank[q]
			}
			ng.Controls = cs
		}
		compactGates = append(compactGates, ng)
	}
	dim := uint64(1) << w
	for b := uint64(0); b < dim; b++ {
		ref := statevec.NewBasis(w, b)
		ref.SetParallelism(1)
		for _, g := range compactGates {
			ref.ApplyGate(g)
		}
		got := statevec.NewBasis(w, b)
		got.SetParallelism(1)
		compact.Apply(got)
		if ref.MaxDiff(got) > verifyEps {
			return false, true
		}
	}
	return true, true
}

// testGateKinds is the number of gate kinds testGate builds.
const testGateKinds = 16

// testGate builds gate kind k mod testGateKinds on the distinct qubits qs:
// qs[0] is the target and the controlled kinds take their controls from
// qs[1:] — CNOT, CZ and CR one, Toffoli two, the multi-controlled X and Z
// all of them — as far as qs reaches. theta is the angle of Rx, Ry, Rz, CR
// and the dense U.
func testGate(k int, qs []uint, theta float64) gates.Gate {
	var g gates.Gate
	controls := 0
	switch k % testGateKinds {
	case 0:
		g = gates.H(0)
	case 1:
		g = gates.X(0)
	case 2:
		g = gates.Y(0)
	case 3:
		g = gates.Z(0)
	case 4:
		g = gates.S(0)
	case 5:
		g = gates.T(0)
	case 6:
		g = gates.Rx(0, theta)
	case 7:
		g = gates.Ry(0, theta)
	case 8:
		g = gates.Rz(0, theta)
	case 9:
		// U(theta, phi, lambda) with phi != lambda: no symmetry between
		// its off-diagonal entries, so a transposed update shows.
		c, s := complex(math.Cos(theta/2), 0), complex(math.Sin(theta/2), 0)
		phi, lambda := 2*theta+0.3, theta/3+0.1
		g = gates.Gate{Name: "U", Matrix: gates.Matrix2{
			c, -cmplx.Exp(complex(0, lambda)) * s,
			cmplx.Exp(complex(0, phi)) * s, cmplx.Exp(complex(0, phi+lambda)) * c,
		}}
	case 10:
		g, controls = gates.X(0), 1
	case 11:
		g, controls = gates.Z(0), 1
	case 12:
		g, controls = gates.Phase(0, theta), 1
	case 13:
		g, controls = gates.X(0), 2
	case 14:
		g, controls = gates.X(0), len(qs)-1
	case 15:
		g, controls = gates.Z(0), len(qs)-1
	}
	g.Target = qs[0]
	if controls > len(qs)-1 {
		controls = len(qs) - 1
	}
	if controls > 0 {
		g.Controls = append([]uint(nil), qs[1:1+controls]...)
	}
	return g
}

// randomGates draws k gates on w qubits; dense is the share of H, Rx, Ry
// and U among them, the rest diagonal, anti-diagonal and controlled kinds.
func randomGates(src *rng.Source, w uint, k int, dense float64) []gates.Gate {
	structured := []int{1, 2, 3, 4, 5, 8, 10, 11, 12, 13, 14, 15}
	branching := []int{0, 6, 7, 9}
	gs := make([]gates.Gate, k)
	for i := range gs {
		kind := structured[src.Intn(len(structured))]
		if src.Float64() < dense {
			kind = branching[src.Intn(len(branching))]
		}
		perm := src.Perm(int(w))
		qs := make([]uint, 1+src.Intn(int(w)))
		for j := range qs {
			qs[j] = uint(perm[j])
		}
		gs[i] = testGate(kind, qs, src.Float64()*2*math.Pi)
	}
	return gs
}

// identityRank is the compact numbering of a register that is its own
// support.
func identityRank() *[64]uint {
	var rank [64]uint
	for i := range rank {
		rank[i] = uint(i)
	}
	return &rank
}

// columnsMatch walks U|b> for gs on w qubits and compares it amplitude by
// amplitude with the same gates run through statevec.ApplyGate on a fresh
// basis state; it returns a description of the first difference beyond
// 1e-12, or "".
func columnsMatch(w uint, gs []gates.Gate, b uint64) string {
	cgs, ok := compactGates(gs, uint64(1)<<w-1, identityRank())
	if !ok {
		return "compactGates rejected an in-register gate list"
	}
	col := make([]complex128, uint64(1)<<w)
	walkColumn(col, cgs, b)
	ref := statevec.NewBasis(w, b)
	ref.SetParallelism(1)
	for _, g := range gs {
		ref.ApplyGate(g)
	}
	for i, a := range ref.Amplitudes() {
		if d := cmplx.Abs(a - col[i]); !(d <= 1e-12) {
			return fmt.Sprintf("w=%d b=%d: amplitude %d walks to %v, dense %v", w, b, i, col[i], a)
		}
	}
	return ""
}

// TestVerifyMatchesDenseOracle holds the column walk to the dense check it
// replaced, twice over: the walked column of generated gate lists equals
// the dense one for every basis input, and on the circgen families the two
// checks reach the same verdict on every op — as recognised, and with one
// gate's phase moved by 1e-7 (both reject) or 1e-13 (both accept).
func TestVerifyMatchesDenseOracle(t *testing.T) {
	t.Run("columns", func(t *testing.T) {
		src := rng.New(71)
		for w := uint(1); w <= 8; w++ {
			for list, dense := range []float64{0, 0.1, 0.3, 0.6} {
				gs := randomGates(src, w, 4*int(w)+4, dense)
				for b := uint64(0); b < uint64(1)<<w; b++ {
					if msg := columnsMatch(w, gs, b); msg != "" {
						t.Fatalf("list %d (dense share %g): %s\ngates: %v", list, dense, msg, gs)
					}
				}
			}
		}
	})

	t.Run("verdicts", func(t *testing.T) {
		families := []struct {
			name  string
			build func(src *rng.Source, n uint) *circuit.Circuit
		}{
			{"qft-ladders", func(src *rng.Source, n uint) *circuit.Circuit { return circgen.QFTLadders(src, n, 2) }},
			{"phase-runs", func(src *rng.Source, n uint) *circuit.Circuit { return circgen.InterruptedPhaseRuns(src, n, 4) }},
			{"wide-controlled", func(src *rng.Source, n uint) *circuit.Circuit { return circgen.WideControlled(src, n, 2) }},
			{"arithmetic", func(src *rng.Source, n uint) *circuit.Circuit { return circgen.Arithmetic(src, n, 8) }},
			{"annotated-qft", func(_ *rng.Source, n uint) *circuit.Circuit { return qft.Circuit(n) }},
			{"annotated-iqft-noswap", func(_ *rng.Source, n uint) *circuit.Circuit { return qft.CircuitNoSwap(n).Dagger() }},
			{"reflect", func(_ *rng.Source, n uint) *circuit.Circuit { return diffusion(n) }},
		}
		kinds := map[string]int{}
		for _, f := range families {
			for _, n := range []uint{5, 8} {
				c := f.build(rng.New(uint64(n)), n)
				for _, op := range analyze(c, Auto, false).Ops() {
					if len(op.support()) > MaxVerifyQubits {
						continue
					}
					kinds[op.Kind()]++
					checkVerdicts(t, fmt.Sprintf("%s n=%d %v", f.name, n, op), c, op)
				}
			}
		}
		for _, k := range []string{"qft", "diagonal", "phaseflip", "add", "sub", "addc", "mul", "div", "reflect"} {
			if kinds[k] == 0 {
				t.Errorf("no %s op among the families (checked %v)", k, kinds)
			}
		}
	})
}

// checkVerdicts requires verifyOp and verifyOpDense to accept op against
// c's gates, and to agree with each other when one of the op's gates — the
// first, a middle one, the last — is followed by a phase of 1e-7 (both
// reject) or of 1e-13 (both accept).
func checkVerdicts(t *testing.T, what string, c *circuit.Circuit, op *Op) {
	t.Helper()
	if keep, _ := verifyOp(c, op, 8); !keep {
		t.Errorf("%s: rejected as recognised", what)
	}
	if keep, _ := verifyOpDense(c, op, 8); !keep {
		t.Errorf("%s: rejected as recognised by the dense oracle", what)
	}
	for _, at := range []int{op.Lo, (op.Lo + op.Hi) / 2, op.Hi - 1} {
		for _, delta := range []float64{1e-7, 1e-13} {
			p := *c
			p.Gates = append([]gates.Gate(nil), c.Gates...)
			ph := cmplx.Exp(complex(0, delta))
			p.Gates[at].Matrix[1] *= ph
			p.Gates[at].Matrix[3] *= ph
			want := delta < verifyEps
			walked, _ := verifyOp(&p, op, 8)
			dense, _ := verifyOpDense(&p, op, 8)
			if walked != want || dense != want {
				t.Errorf("%s: gate %d phased by %g: walk keeps %v, dense keeps %v, want %v",
					what, at, delta, walked, dense, want)
			}
		}
	}
}

// diffusion is the Grover diffusion on n qubits, H·X·MCZ·X·H, annotated as
// the reflection about the uniform state it is.
func diffusion(n uint) *circuit.Circuit {
	c := circuit.New(n)
	args := []uint64{uint64(n)}
	controls := make([]uint, n-1)
	for q := uint(0); q < n; q++ {
		c.Append(gates.H(q), gates.X(q))
		args = append(args, uint64(q))
		if q > 0 {
			controls[q-1] = q
		}
	}
	c.Append(gates.Z(0).WithControls(controls...))
	for q := uint(0); q < n; q++ {
		c.Append(gates.X(q), gates.H(q))
	}
	return c.Annotate(circuit.Region{Name: "reflect-uniform", Args: args, Lo: 0, Hi: c.Len()})
}

// FuzzVerifyColumn draws the width, the basis input and a gate list from
// the input — three bytes a gate: kind, qubit order and count, angle — and
// requires the walked column to equal the gates run through
// statevec.ApplyGate.
func FuzzVerifyColumn(f *testing.F) {
	f.Add([]byte{7, 0x5a, 0, 0, 0, 12, 1, 40, 0, 2, 0, 12, 3, 90})
	f.Add([]byte{3, 5, 1, 0, 0, 10, 9, 0, 14, 7, 0, 8, 2, 200})
	f.Add([]byte{5, 17, 9, 3, 77, 13, 21, 0, 2, 4, 0, 15, 30, 0, 6, 11, 128})
	// X, CCX and CR only: a basis-map list, so the sparse walk runs too.
	f.Add([]byte{5, 0x2b, 1, 2, 0, 13, 0x11, 0, 12, 0x0b, 77, 1, 4, 0, 13, 0x13, 0, 12, 0x0c, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		w := 1 + uint(data[0]%8)
		b := uint64(data[1]) & (uint64(1)<<w - 1)
		var gs []gates.Gate
		for rest := data[2:]; len(rest) >= 3 && len(gs) < 64; rest = rest[3:] {
			// The qubit byte picks a rotation of the register and how many
			// of its qubits the gate may use.
			start, count := uint(rest[1])%w, 1+uint(rest[1]>>3)%w
			qs := make([]uint, count)
			for j := range qs {
				qs[j] = (start + uint(j)) % w
			}
			gs = append(gs, testGate(int(rest[0]), qs, float64(rest[2])/256*2*math.Pi))
		}
		if msg := columnsMatch(w, gs, b); msg != "" {
			t.Fatalf("%s\ngates: %v", msg, gs)
		}
		if msg := basisWalkMatches(w, gs, b); msg != "" {
			t.Fatalf("%s\ngates: %v", msg, gs)
		}
	})
}

// basisWalkMatches requires walkBasis, wherever it follows U|b> to the end
// (no gate of gs branches the column), to land on the walked column's one
// nonzero entry with the same phase bit for bit; it returns a description
// of the first difference, or "".
func basisWalkMatches(w uint, gs []gates.Gate, b uint64) string {
	cgs, ok := compactGates(gs, uint64(1)<<w-1, identityRank())
	if !ok {
		return "compactGates rejected an in-register gate list"
	}
	at, ph, ok := walkBasis(cgs, b)
	if !ok {
		return ""
	}
	col := make([]complex128, uint64(1)<<w)
	walkColumn(col, cgs, b)
	for i, a := range col {
		want := complex128(0)
		if uint64(i) == at {
			want = ph
		}
		if !sameBits(a, want) {
			return fmt.Sprintf("w=%d b=%d: the sparse walk ends at %d with %v, the column holds %v at %d",
				w, b, at, ph, a, i)
		}
	}
	return ""
}

// sameBits reports whether a and b have identical bit patterns.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestBasisWalkMatchesColumn runs basisWalkMatches over generated gate
// lists of the structured kinds alone, where most columns never branch.
func TestBasisWalkMatchesColumn(t *testing.T) {
	src := rng.New(73)
	walked := 0
	for w := uint(1); w <= 8; w++ {
		for list := 0; list < 4; list++ {
			gs := randomGates(src, w, 4*int(w)+4, 0)
			cgs, _ := compactGates(gs, uint64(1)<<w-1, identityRank())
			for b := uint64(0); b < uint64(1)<<w; b++ {
				if _, _, ok := walkBasis(cgs, b); ok {
					walked++
				}
				if msg := basisWalkMatches(w, gs, b); msg != "" {
					t.Fatalf("%s\ngates: %v", msg, gs)
				}
			}
		}
	}
	if walked == 0 {
		t.Fatal("no column was walked to the end without branching")
	}
}

// TestBranchingBasisMapFallsBack checks basis-map regions whose gates put a
// qubit into superposition and take it out again — H·H inside an adder, the
// X conjugation of a phase flip written as H·Z·H — so that the sparse walk
// stops and the dense column path decides. They are kept as recognised, and
// with one gate phased by 1e-7 they are rejected (checkVerdicts, against
// verifyOpDense).
func TestBranchingBasisMapFallsBack(t *testing.T) {
	adder := circuit.New(7)
	revlib.Adder(adder, revlib.Seq(0, 3), revlib.Seq(3, 3), 6)
	mid := adder.Len() / 2
	hh := circuit.New(7)
	hh.Append(adder.Gates[:mid]...)
	hh.Append(gates.H(4), gates.H(4))
	hh.Append(adder.Gates[mid:]...)
	region := adder.Regions[0]
	region.Hi += 2
	hh.Annotate(region)

	// The phase flip of |0110>: X on qubits 0 and 3, each as H·Z·H.
	flip := circuit.New(4)
	hzh := func(qs ...uint) {
		for _, q := range qs {
			flip.Append(gates.H(q), gates.Z(q), gates.H(q))
		}
	}
	hzh(0, 3)
	flip.Append(gates.Z(0).WithControls(1, 2, 3))
	hzh(0, 3)
	flip.Annotate(circuit.Region{Name: "phaseflip", Args: []uint64{4, 0, 1, 2, 3, 0b0110}, Lo: 0, Hi: flip.Len()})

	for name, c := range map[string]*circuit.Circuit{"add-hh": hh, "phaseflip-hzh": flip} {
		ops := analyze(c, Annotated, false).Ops()
		if len(ops) != 1 || ops[0].GateCount() != c.Len() {
			t.Fatalf("%s: want one op over all %d gates, got %v", name, c.Len(), ops)
		}
		r, _ := compactRegion(c, ops[0], 8)
		if _, _, ok := walkBasis(r.gs, 0); ok {
			t.Fatalf("%s: column 0 never branches, so the dense path is not reached", name)
		}
		checkVerdicts(t, name, c, ops[0])
	}
}

// TestAnalyzeVerifiesRepeatsOnce runs Analyze over identical QFT regions,
// one of them shifted up a qubit, interleaved with a copy whose middle
// controlled phase is off by 1e-7. Every honest copy is kept and Verified;
// the lying copy is rejected, and so is its later repeat. The memo keys
// show why: the honest copies share one key wherever they sit, and the
// copy that differs in one angle has a key of its own.
func TestAnalyzeVerifiesRepeatsOnce(t *testing.T) {
	const n, k = 6, 3
	honest := qft.Circuit(n - 1)
	lying := qft.Circuit(n - 1)
	lying.Gates = append([]gates.Gate(nil), lying.Gates...)
	at := 1
	if g := lying.Gates[at]; len(g.Controls) != 1 || !g.IsDiagonalOnState() {
		t.Fatalf("gate %d of the QFT is %v, not a controlled phase", at, g)
	}
	lying.Gates[at].Matrix[3] *= cmplx.Exp(complex(0, 1e-7))

	c := circuit.New(n)
	var lies []int // the first gate of each lying copy
	for i := 0; i < k; i++ {
		c.Extend(honest)
	}
	lies = append(lies, c.Len())
	c.Extend(lying)
	lo := c.Len()
	c.Append(shifted(honest, 1)...)
	c.Annotate(circuit.Region{Name: "qft", Args: []uint64{1, n - 1}, Lo: lo, Hi: c.Len()})
	c.Extend(honest)
	lies = append(lies, c.Len())
	c.Extend(lying)

	plan := Analyze(c, DefaultOptions(Annotated))
	ops := plan.Ops()
	if len(ops) != k+2 {
		t.Fatalf("kept %d ops, want the %d honest copies:\n%s", len(ops), k+2, plan.Describe())
	}
	for _, op := range ops {
		if !op.Verified {
			t.Errorf("%v: kept but not Verified", op)
		}
	}
	if len(plan.Skipped) != len(lies) {
		t.Fatalf("skipped %v, want the lying copies at %v", plan.Skipped, lies)
	}
	for i, sk := range plan.Skipped {
		if sk.Lo != lies[i] || !strings.Contains(sk.Reason, "verification failed") {
			t.Errorf("skip %d is %+v, want the lying copy at gate %d rejected by verification", i, sk, lies[i])
		}
	}

	var honestKey, lyingKey string
	for _, op := range analyze(c, Annotated, false).Ops() {
		r, _ := compactRegion(c, op, MaxVerifyQubits)
		key, lie := r.key(), slices.Contains(lies, op.Lo)
		switch {
		case lie && lyingKey == "":
			lyingKey = key
		case !lie && honestKey == "":
			honestKey = key
		case lie && key != lyingKey, !lie && key != honestKey:
			t.Errorf("the copy at gate %d has a key of its own", op.Lo)
		}
	}
	if honestKey == lyingKey {
		t.Error("the honest and the lying copy share a key")
	}
}

// diagTableEveryEntry is the gate-order walk, kept as the oracle of
// diagTable: every gate, in order, tests every entry of the table against
// its controls.
func diagTableEveryEntry(gs []gates.Gate, qubits []uint) []complex128 {
	local := make(map[uint]uint, len(qubits))
	for i, q := range qubits {
		local[q] = uint(i)
	}
	dim := 1 << len(qubits)
	d := make([]complex128, dim)
	for x := range d {
		d[x] = 1
	}
	for _, g := range gs {
		tb := uint64(1) << local[g.Target]
		var cm uint64
		for _, q := range g.Controls {
			cm |= 1 << local[q]
		}
		for x := 0; x < dim; x++ {
			if uint64(x)&cm != cm {
				continue
			}
			if uint64(x)&tb != 0 {
				d[x] *= g.Matrix[3]
			} else {
				d[x] *= g.Matrix[0]
			}
		}
	}
	return d
}

// TestDiagTableMatchesEveryEntryOracle draws runs of T, S, Z, CZ, CR, Rz,
// controlled diagonals whose first element is not 1 and multi-controlled
// phases — a third of their phases exactly ±1 or ±i — over every width
// from 1 to 16, and requires matchDiagonalRun's table, built in product
// form, to equal the gate-order oracle's to 1e-12 in every entry.
func TestDiagTableMatchesEveryEntryOracle(t *testing.T) {
	src := rng.New(29)
	exact := []complex128{1, -1, 1i, -1i}
	phase := func() complex128 {
		if src.Intn(3) == 0 {
			return exact[src.Intn(len(exact))]
		}
		return cmplx.Exp(complex(0, src.Float64()*2*math.Pi))
	}
	for trial := 0; trial < 320; trial++ {
		n := 1 + uint(trial%16)
		c := circuit.New(n)
		for count := MinDiagGates + src.Intn(40); c.Len() < count; {
			perm := src.Perm(int(n))
			qs := make([]uint, 1+src.Intn(int(n)))
			for j := range qs {
				qs[j] = uint(perm[j])
			}
			var g gates.Gate
			switch src.Intn(8) {
			case 0:
				g = gates.T(qs[0])
			case 1:
				g = gates.S(qs[0])
			case 2:
				g = gates.Z(qs[0])
			case 3:
				g = gates.Rz(qs[0], src.Float64()*4*math.Pi)
			case 4:
				g = gates.Gate{Name: "D", Matrix: gates.Matrix2{phase(), 0, 0, phase()}, Target: qs[0]}
			case 5:
				if len(qs) < 2 {
					continue
				}
				if src.Intn(2) == 0 {
					g = gates.CZ(qs[1], qs[0])
				} else {
					g = gates.CR(qs[1], qs[0], src.Float64()*2*math.Pi)
				}
			case 6:
				g = gates.Gate{Name: "MCP", Matrix: gates.Matrix2{1, 0, 0, phase()}, Target: qs[0],
					Controls: append([]uint(nil), qs[1:]...)}
			case 7:
				if len(qs) < 2 {
					continue
				}
				g = gates.Gate{Name: "CD", Matrix: gates.Matrix2{phase(), 0, 0, phase()}, Target: qs[0],
					Controls: []uint{qs[1]}}
			}
			c.Append(g)
		}
		op := matchDiagonalRun(c, 0, c.Len())
		if op == nil || op.Hi != c.Len() {
			t.Fatalf("trial %d: the run of %d diagonal gates was not matched whole: %v", trial, c.Len(), op)
		}
		want := diagTableEveryEntry(c.Gates, op.qubits)
		for x := range want {
			if d := cmplx.Abs(op.diag[x] - want[x]); !(d <= 1e-12) {
				t.Fatalf("trial %d: entry %d is %v, the oracle's %v\ngates: %v", trial, x, op.diag[x], want[x], c.Gates)
			}
		}
	}
}

// verifyOps are the ops the allocation pin and BenchmarkVerifyOp measure:
// the annotated QFT, a matched diagonal run over every qubit, the annotated
// Cuccaro adder at m=3 and the annotated diffusion, each with its circuit.
func verifyOps(tb testing.TB, w uint) map[string]struct {
	c  *circuit.Circuit
	op *Op
} {
	tb.Helper()
	diag := circuit.New(w)
	for q := uint(0); q < w; q++ {
		diag.Append(gates.T(q), gates.CR(q, (q+1)%w, 0.3+float64(q)), gates.Rz(q, 1.1))
	}
	adder := circuit.New(7)
	revlib.Adder(adder, revlib.Seq(0, 3), revlib.Seq(3, 3), 6)
	out := map[string]struct {
		c  *circuit.Circuit
		op *Op
	}{}
	for name, c := range map[string]*circuit.Circuit{
		fmt.Sprintf("qft%d", w): qft.Circuit(w), fmt.Sprintf("diag%d", w): diag,
		"add-m3": adder, fmt.Sprintf("reflect%d", w): diffusion(w),
	} {
		ops := analyze(c, Auto, false).Ops()
		if len(ops) != 1 || ops[0].GateCount() != c.Len() {
			tb.Fatalf("%s: want one op over all %d gates, got %v", name, c.Len(), ops)
		}
		out[name] = struct {
			c  *circuit.Circuit
			op *Op
		}{c, ops[0]}
	}
	return out
}

// TestVerifyOpAllocations pins verifyOp's allocations on a QFT and on a
// diagonal run: a handful per op — the compact gate list and op, one column
// buffer, one scratch state — and the same count at w=4 as at w=8, not one
// state per basis input.
func TestVerifyOpAllocations(t *testing.T) {
	counts := map[string]float64{}
	for _, w := range []uint{4, 8} {
		ops := verifyOps(t, w)
		for _, kind := range []string{"qft", "diag"} {
			x := ops[fmt.Sprintf("%s%d", kind, w)]
			allocs := testing.AllocsPerRun(5, func() {
				if keep, checked := verifyOp(x.c, x.op, 8); !keep || !checked {
					t.Fatalf("%s%d: verifyOp = %v, %v", kind, w, keep, checked)
				}
			})
			if allocs > 16 {
				t.Errorf("%s%d: verifyOp allocates %v times, want at most 16", kind, w, allocs)
			}
			if prev, ok := counts[kind]; ok && prev != allocs {
				t.Errorf("%s: verifyOp allocates %v times at w=4 and %v at w=8", kind, prev, allocs)
			}
			counts[kind] = allocs
		}
	}
}

// BenchmarkVerifyOp times one verifyOp per op kind at the widths the
// compile-cold corpus verifies.
func BenchmarkVerifyOp(b *testing.B) {
	ops := verifyOps(b, 8)
	for _, name := range []string{"qft8", "diag8", "add-m3", "reflect8"} {
		x := ops[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				verifyOp(x.c, x.op, 8)
			}
		})
	}
}
