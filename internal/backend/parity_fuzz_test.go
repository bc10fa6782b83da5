package backend_test

import (
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/gates"
	"repro/internal/noise"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// parityCircuit decodes one fuzz input into a generated circuit: the
// family, a width of 5..10 qubits and the family's size parameter.
func parityCircuit(seed uint64, family, width, size uint8) (string, *circuit.Circuit) {
	src := rng.New(seed)
	n := 5 + uint(width%6)
	switch family % 12 {
	case 11:
		start := [2]string{"hadamard", "rotations"}[size%2]
		return fmt.Sprintf("grovermix-%s-n%d-s%d", start, n, seed), circgen.GroverMix(src, n, size%2 == 1)
	case 10:
		place := czPairPlaces[size%3]
		return fmt.Sprintf("czpairs-%s-n%d-s%d", place, n, seed), czPairs(src, n, place)
	case 8, 9:
		kind, place := carriedKinds[size%3], carriedPlaces[size/3%3]
		how := "annotated"
		if family%10 == 9 {
			how = "matched"
		}
		return fmt.Sprintf("carried-%s-%s-%s-n%d-s%d", how, kind, place, n, seed),
			carriedOp(src, n, kind, place, family%10 == 8)
	case 6:
		return fmt.Sprintf("halves-n%d-s%d", n, seed), halvesPairs(src, n, 1+int(size%3))
	case 7:
		return fmt.Sprintf("chain-n%d-s%d", n, seed), chainLayers(src, n, int(n/2)+int(size%2))
	case 0:
		return fmt.Sprintf("brickwork-n%d-s%d", n, seed), circgen.Brickwork(src, n, 2+int(size%6))
	case 1:
		return fmt.Sprintf("ladders-n%d-s%d", n, seed), circgen.QFTLadders(src, n, 1+int(size%3))
	case 2:
		return fmt.Sprintf("phaseruns-n%d-s%d", n, seed), circgen.InterruptedPhaseRuns(src, n, 4+int(size%8))
	case 3:
		return fmt.Sprintf("widectl-n%d-s%d", n, seed), circgen.WideControlled(src, n, 2+int(size%3))
	case 4:
		return fmt.Sprintf("arithmetic-n%d-s%d", n, seed), circgen.Arithmetic(src, n, 1+int(size%3))
	default:
		return fmt.Sprintf("fourier-n%d-s%d", n, seed), circgen.FourierSandwich(src, n, 1+int(size%2))
	}
}

// halvesPairs is a product-prefix family: layers of one-qubit rotations,
// each followed by CNOTs or CZs joining the qubits of the low half to
// those of the high half in a random pairing, so the first unit's
// clusters double per layer until they would pass ⌊n/2⌋ qubits.
func halvesPairs(src *rng.Source, n uint, layers int) *circuit.Circuit {
	c := circuit.New(n)
	half := int(n / 2)
	for l := 0; l < layers; l++ {
		for q := uint(0); q < n; q++ {
			c.Append(gates.Ry(q, 0.2+3*src.Float64()), gates.Rz(q, 0.2+3*src.Float64()))
		}
		for lo, hi := range src.Perm(half) {
			a, b := uint(lo), uint(half+hi)
			if src.Intn(2) == 0 {
				c.Append(gates.CNOT(a, b))
			} else {
				c.Append(gates.CZ(b, a))
			}
		}
	}
	return c
}

// chainLayers is a product-prefix family: a layer of one-qubit rotations,
// a CNOT chain over the first `width` qubits — one cluster of that many
// qubits, or of ⌊n/2⌋ and a remainder gate where width passes it — then
// another one-qubit layer and a brickwork layer that join everything.
func chainLayers(src *rng.Source, n uint, width int) *circuit.Circuit {
	c := circuit.New(n)
	layer := func() {
		for q := uint(0); q < n; q++ {
			c.Append(gates.Ry(q, 0.2+3*src.Float64()))
		}
	}
	layer()
	for q := uint(1); q < uint(width) && q < n; q++ {
		c.Append(gates.CNOT(q-1, q))
	}
	layer()
	for q := uint(0); q+1 < n; q++ {
		c.Append(gates.CNOT(q, q+1))
	}
	return c
}

// The carried family's op kinds and placements: the op's support fits a
// prefix cluster, passes ⌊n/2⌋ by one qubit, or holds a qubit an earlier
// remainder gate closed.
var (
	carriedKinds  = [3]string{"diagonal", "phaseflip", "qft"}
	carriedPlaces = [3]string{"fits", "past-cap", "closed"}
)

// carriedOp is a product-prefix family that carries the prefix into a
// recognised op: a one-qubit layer, then (placement "closed") a CNOT chain
// joining the top ⌊n/2⌋ qubits into one cluster and a CNOT from it to
// qubit 0, a remainder gate; then the op on qubits [0, k), k = ⌊n/2⌋ or
// one more ("past-cap"): a diagonal run (matched whatever annotate says:
// a diagonal is never annotated), an X-conjugated multi-controlled Z or a
// QFT, annotated as a region or left to the matchers; then a one-qubit
// layer and a CNOT brickwork layer that join everything.
func carriedOp(src *rng.Source, n uint, kind, place string, annotate bool) *circuit.Circuit {
	c := circuit.New(n)
	half := n / 2
	for q := uint(0); q < n; q++ {
		c.Append(gates.Ry(q, 0.2+3*src.Float64()))
	}
	if place == "closed" {
		for q := n - 1; q > n-half; q-- {
			c.Append(gates.CNOT(q, q-1))
		}
		c.Append(gates.CNOT(n-1, 0))
	}
	k := half
	if place == "past-cap" {
		k++
	}
	lo := c.Len()
	switch kind {
	case "diagonal":
		for q := uint(0); q+1 < k; q++ {
			c.Append(gates.CZ(q, q+1))
		}
		for q := uint(0); q < k; q++ {
			c.Append(gates.Phase(q, 0.2+3*src.Float64()))
		}
		c.Append(gates.T(0))
	case "phaseflip":
		value := uint64(src.Intn(1 << k))
		args := []uint64{uint64(k)}
		controls := make([]uint, 0, k-1)
		for q := uint(0); q < k; q++ {
			args = append(args, uint64(q))
			if q > 0 {
				controls = append(controls, q)
			}
		}
		flips := func() {
			for q := uint(0); q < k; q++ {
				if value>>q&1 == 0 {
					c.Append(gates.X(q))
				}
			}
		}
		flips()
		c.Append(gates.Z(0).WithControls(controls...))
		flips()
		if annotate {
			c.Annotate(circuit.Region{Name: "phaseflip", Args: append(args, value), Lo: lo, Hi: c.Len()})
		}
	default:
		f := qft.Field(n, 0, k, true)
		if annotate {
			c.Extend(f)
		} else {
			c.Append(f.Gates...)
		}
	}
	for q := uint(0); q < n; q++ {
		c.Append(gates.Rx(q, 0.2+3*src.Float64()))
	}
	for q := uint(0); q+1 < n; q++ {
		c.Append(gates.CNOT(q, q+1))
	}
	return c
}

// The CZ-pair family's placements: every factor of the diagonal fits a
// prefix cluster though its whole support passes ⌊n/2⌋, one factor passes
// ⌊n/2⌋ by one qubit, or a factor holds a qubit an earlier remainder gate
// closed.
var czPairPlaces = [3]string{"factors-fit", "factor-past-cap", "factor-closed"}

// czPairs is a product-prefix family whose diagonal joins the prefix only
// factor by factor (recognize.Op.Factors): a one-qubit layer, then
// (placement "factor-closed") the carried family's CNOT chain over the top
// ⌊n/2⌋ qubits and the remainder CNOT from it to qubit 0; then a matched
// diagonal run of CZs on the pairs (0,1), (2,3), ... over ⌊n/4⌋+1 pairs —
// or ("factor-past-cap") of a CZ chain over qubits [0, ⌊n/2⌋] and a CZ on
// the next pair — with a phase on each of its qubits; then a one-qubit
// layer and a CNOT brickwork layer that join everything.
func czPairs(src *rng.Source, n uint, place string) *circuit.Circuit {
	c := circuit.New(n)
	half := n / 2
	for q := uint(0); q < n; q++ {
		c.Append(gates.Ry(q, 0.2+3*src.Float64()))
	}
	if place == "factor-closed" {
		for q := n - 1; q > n-half; q-- {
			c.Append(gates.CNOT(q, q-1))
		}
		c.Append(gates.CNOT(n-1, 0))
	}
	k := 2 * (half/2 + 1)
	if place == "factor-past-cap" {
		k = half + 3
		for q := uint(0); q < half; q++ {
			c.Append(gates.CZ(q, q+1))
		}
		c.Append(gates.CZ(half+1, half+2))
	} else {
		for q := uint(0); q+1 < k; q += 2 {
			c.Append(gates.CZ(q, q+1))
		}
	}
	for q := uint(0); q < k; q++ {
		c.Append(gates.Phase(q, 0.2+3*src.Float64()))
	}
	for q := uint(0); q < n; q++ {
		c.Append(gates.Rx(q, 0.2+3*src.Float64()))
	}
	for q := uint(0); q+1 < n; q++ {
		c.Append(gates.CNOT(q, q+1))
	}
	return c
}

// parityTarget is one named execution shape.
type parityTarget struct {
	name string
	t    backend.Target
}

// parityTargets is every execution shape Compile can produce for an
// n-qubit register, in a fixed order so a failing input reports the same
// first failure on every replay: the baseline, the auto target, and the
// fused engine at four widths and both cluster sizes with emulation off
// and on.
func parityTargets(n uint) []parityTarget {
	ts := []parityTarget{
		{"generic", backend.Target{NumQubits: n, Kind: backend.Generic}},
		{"auto", backend.Target{NumQubits: n, Auto: true}},
	}
	for _, mode := range []recognize.Mode{recognize.Off, recognize.Auto} {
		for _, w := range []int{1, 2, 4, 8} {
			ts = append(ts, parityTarget{fmt.Sprintf("fused-w%d-%v", w, mode), backend.Target{
				NumQubits: n, Kind: backend.Fused, FuseWidth: w, Emulate: mode}})
		}
		for _, p := range []int{2, 4} {
			ts = append(ts, parityTarget{fmt.Sprintf("cluster-p%d-%v", p, mode), backend.Target{
				NumQubits: n, Kind: backend.Cluster, Nodes: p, FuseWidth: 3, Emulate: mode}})
		}
	}
	return ts
}

// paritySeeds is the checked-in corpus: the first five families at three
// widths, sizes spread over the decoded range, then arithmetic inputs at
// every width so that between them every permutation-family op kind is
// recognised (TestParitySeedsReachEveryArithmeticOp), multipliers on
// contiguous registers — the widened field-add sweep — among them, then
// Fourier sandwiches at every width, whose transforms the cluster targets
// lower across their node bits (TestParitySeedsReachEveryFourierLowering),
// then inputs whose first segment's product prefix reaches the cluster cap
// ⌊n/2⌋ exactly and one qubit past it: two-layer brickworks, pairs across
// the halves and one-qubit layers around a chain, at 8, 9 and 10 qubits
// (TestParitySeedsReachThePrefixCap), then the carried family's every op
// kind and placement, annotated and matched, at 8, 9 and 10 qubits
// (TestParitySeedsReachTheCarry), then the CZ-pair family's every
// placement at 8, 9 and 10 qubits (TestParitySeedsReachTheFactors), then
// the Grover-mix family from both starts at every width
// (TestParitySeedsReachTheOnePassOps).
func paritySeeds() [][4]uint64 {
	var seeds [][4]uint64
	for i := uint64(0); i < 15; i++ {
		seeds = append(seeds, [4]uint64{2300 + i, i % 5, i/5*2 + i%2, 3 * i})
	}
	for i := uint64(0); i < 6; i++ {
		seeds = append(seeds, [4]uint64{2400 + i, 4, i, 2})
	}
	for i := uint64(0); i < 6; i++ {
		seeds = append(seeds, [4]uint64{2500 + i, 5, i, i})
	}
	for i := uint64(0); i < 6; i++ {
		seeds = append(seeds,
			[4]uint64{2600 + i, 0, 3 + i%3, 0},       // brickwork, two layers
			[4]uint64{2700 + i, 6, 3 + i%3, 1 + i/3}, // halves, two and three layers
			[4]uint64{2800 + i, 7, 3 + i%3, i / 3})   // chain at ⌊n/2⌋, then one past
	}
	for i := uint64(0); i < 9; i++ {
		seeds = append(seeds,
			[4]uint64{2900 + i, 8, 3 + i%3, i}, // annotated
			[4]uint64{3000 + i, 9, 5 - i%3, i}) // matched
	}
	for i := uint64(0); i < 9; i++ {
		seeds = append(seeds, [4]uint64{3100 + i, 10, 3 + i/3, i % 3})
	}
	for i := uint64(0); i < 6; i++ {
		seeds = append(seeds, [4]uint64{3200 + i, 11, i, i % 2})
	}
	return seeds
}

// TestParitySeedsReachTheFactors keeps the CZ-pair seeds honest: compiled
// for the corpus's two-node cluster shape with recognition on, each seed's
// diagonal is recognised and splits into its CZ blocks; its whole support
// passes ⌊n/2⌋, so it joins the prefix only factor by factor, and it does
// exactly when its placement is "factors-fit", the span then running on
// into the gate unit after it; otherwise the span ends before it.
func TestParitySeedsReachTheFactors(t *testing.T) {
	reached := map[string]int{}
	for _, s := range paritySeeds() {
		if s[1] != 10 {
			continue
		}
		name, c := parityCircuit(s[0], uint8(s[1]), uint8(s[2]), uint8(s[3]))
		x, err := backend.Compile(c, backend.Target{NumQubits: c.NumQubits, Kind: backend.Cluster, Nodes: 2, FuseWidth: 3, Emulate: recognize.Auto})
		if err != nil {
			t.Fatal(err)
		}
		if len(x.Units) != 3 || x.Units[1].Op == nil || x.Units[1].Op.Kind() != "diagonal" {
			t.Errorf("%s: %d units; want a gate unit, a diagonal and a gate unit", name, len(x.Units))
			continue
		}
		op := x.Units[1].Op
		if len(op.Support()) <= int(c.NumQubits/2) || len(op.Factors()) < 2 {
			t.Errorf("%s: the diagonal on %v splits into %d factors; want a support past ⌊n/2⌋ and a split",
				name, op.Support(), len(op.Factors()))
		}
		place := czPairPlaces[s[3]%3]
		end := 0
		if p := x.Units[0].Prefix; p != nil {
			end = p.End
		}
		if want := map[bool]int{true: 3, false: 1}[place == "factors-fit"]; end != want {
			t.Errorf("%s: the prefix spans %d units, want %d", name, end, want)
		}
		reached[place]++
	}
	for _, place := range czPairPlaces {
		if reached[place] == 0 {
			t.Errorf("no seed places a CZ-pair diagonal %s (reached: %v)", place, reached)
		}
	}
}

// TestParitySeedsReachTheOnePassOps keeps the Grover-mix seeds honest:
// run whole on one node with recognition on, every seed composes its
// adder with the diagonal after it and its subtractor with the diagonal
// before it, and runs its first reflection on the sum carried from the
// fill through the phase flip; a run cut between the composed ops, or
// between the flip and the reflection, runs them apart.
func TestParitySeedsReachTheOnePassOps(t *testing.T) {
	for _, s := range paritySeeds() {
		if s[1] != 11 {
			continue
		}
		name, c := parityCircuit(s[0], uint8(s[1]), uint8(s[2]), uint8(s[3]))
		x, err := backend.Compile(c, backend.Target{NumQubits: c.NumQubits, FuseWidth: 4, Emulate: recognize.Auto})
		if err != nil {
			t.Fatal(err)
		}
		b, err := backend.New(x.Target)
		if err != nil {
			t.Fatal(err)
		}
		composed, carried, err := backend.RunUnitsCounted(b, x, 0, len(x.Units))
		if err != nil {
			t.Fatal(err)
		}
		if composed != 2 || carried < 1 {
			t.Errorf("%s: %d pairs composed and %d reflections on a carried sum; want 2 and at least 1", name, composed, carried)
		}
		// Cut the run in two right before each reflection and between the
		// ops of each pair: the cut pair runs apart, and the reflection,
		// starting its window, on a sum of its own.
		for i := 1; i < len(x.Units); i++ {
			prev, next := x.Units[i-1].Op, x.Units[i].Op
			if prev == nil || next == nil {
				continue
			}
			_, arith := prev.FieldAdd()
			if _, ok := next.FieldAdd(); ok {
				arith = true
			}
			_, _, diag := prev.DiagTable()
			if _, _, ok := next.DiagTable(); ok {
				diag = true
			}
			pair, reflect := arith && diag, next.ReflectUniform()
			if !pair && !reflect {
				continue
			}
			b.Reset()
			c1, r1, err := backend.RunUnitsCounted(b, x, 0, i)
			if err != nil {
				t.Fatal(err)
			}
			c2, r2, err := backend.RunUnitsCounted(b, x, i, len(x.Units))
			if err != nil {
				t.Fatal(err)
			}
			if pair && c1+c2 != composed-1 {
				t.Errorf("%s: a cut before unit %d composes %d pairs, want %d", name, i, c1+c2, composed-1)
			}
			if reflect && r1+r2 != carried-1 {
				t.Errorf("%s: a cut before unit %d carries %d reflections, want %d", name, i, r1+r2, carried-1)
			}
		}
		b.Close()
	}
}

// TestParitySeedsReachTheCarry keeps the carried seeds honest: compiled
// for the corpus's two-node cluster shape with recognition on, each seed's
// op is recognised; it joins the prefix's span exactly when its placement
// fits a cluster, and then the span runs on into the gate unit after it;
// otherwise the span ends before it.
func TestParitySeedsReachTheCarry(t *testing.T) {
	absorbed := map[string]int{}
	for _, s := range paritySeeds() {
		if s[1] != 8 && s[1] != 9 {
			continue
		}
		name, c := parityCircuit(s[0], uint8(s[1]), uint8(s[2]), uint8(s[3]))
		x, err := backend.Compile(c, backend.Target{NumQubits: c.NumQubits, Kind: backend.Cluster, Nodes: 2, FuseWidth: 3, Emulate: recognize.Auto})
		if err != nil {
			t.Fatal(err)
		}
		if len(x.Units) != 3 || x.Units[1].Op == nil {
			t.Errorf("%s: %d units; want a gate unit, the op and a gate unit", name, len(x.Units))
			continue
		}
		p := x.Units[0].Prefix
		end := 0
		if p != nil {
			end = p.End
		}
		kind, place := carriedKinds[s[3]%3], carriedPlaces[s[3]/3%3]
		if want := map[bool]int{true: 3, false: 1}[place == "fits"]; end != want {
			t.Errorf("%s: the prefix spans %d units, want %d", name, end, want)
		}
		if end == 3 {
			absorbed[kind]++
		}
	}
	for _, kind := range carriedKinds {
		if absorbed[kind] == 0 {
			t.Errorf("no seed's prefix absorbs a %s op (absorbed: %v)", kind, absorbed)
		}
	}
}

// TestParitySeedsReachThePrefixCap keeps the product-prefix seeds honest:
// compiled at fused w=4, every brickwork, halves and chain seed fills a
// prefix, some first unit holds a cluster of exactly ⌊n/2⌋ qubits, and
// the chain's CNOTs (gates n, n+1, ... after its first one-qubit layer)
// are in the prefix up to the cap and not past it.
func TestParitySeedsReachThePrefixCap(t *testing.T) {
	atCap, past := 0, 0
	for _, s := range paritySeeds() {
		if s[0] < 2600 {
			continue
		}
		name, c := parityCircuit(s[0], uint8(s[1]), uint8(s[2]), uint8(s[3]))
		x, err := backend.Compile(c, backend.Target{FuseWidth: 4})
		if err != nil {
			t.Fatal(err)
		}
		p := x.Units[0].Prefix
		if p == nil {
			t.Errorf("%s: no product prefix", name)
			continue
		}
		capQubits := int(c.NumQubits / 2)
		for _, qs := range p.Clusters {
			if len(qs) == capQubits {
				atCap++
				break
			}
		}
		if s[1] != 7 {
			continue
		}
		in := map[int]bool{}
		for _, i := range p.Index {
			in[i] = true
		}
		n := int(c.NumQubits)
		width := capQubits + int(s[3]%2)
		for k := 1; k < width; k++ {
			if want := k < capQubits; in[n+k-1] != want {
				t.Errorf("%s: chain CNOT %d in the prefix: %v, want %v", name, k, in[n+k-1], want)
			}
		}
		if width > capQubits {
			past++
		}
	}
	if atCap == 0 || past == 0 {
		t.Errorf("%d seeds fill a prefix cluster of ⌊n/2⌋ qubits and %d chains ask for one more; want some of each", atCap, past)
	}
}

// TestParitySeedsReachEveryArithmeticOp keeps the corpus honest: compiled
// with recognition on, its arithmetic inputs hold an op of each kind, and
// on two nodes at least one of them runs on the shards as on one state
// (substrate statevec: its support clear of the node bit), so the P > 1
// node-local path sits under the parity corpus beside the cluster-wide
// permutation.
func TestParitySeedsReachEveryArithmeticOp(t *testing.T) {
	reached := map[string]int{}
	substrates := map[string]int{}
	for _, s := range paritySeeds() {
		_, c := parityCircuit(s[0], uint8(s[1]), uint8(s[2]), uint8(s[3]))
		x, err := backend.Compile(c, backend.Target{FuseWidth: 4, Emulate: recognize.Auto})
		if err != nil {
			t.Fatal(err)
		}
		for i := range x.Units {
			if op := x.Units[i].Op; op != nil {
				reached[op.Kind()]++
			}
		}
		x, err = backend.Compile(c, backend.Target{Kind: backend.Cluster, Nodes: 2, FuseWidth: 3, Emulate: recognize.Auto})
		if err != nil {
			t.Fatal(err)
		}
		for i := range x.Units {
			if op := x.Units[i].Op; op != nil {
				if _, ok := op.Permutation(); ok {
					substrates[x.Units[i].Substrate]++
				}
			}
		}
	}
	for _, kind := range []string{"add", "sub", "addc", "mul", "div"} {
		if reached[kind] == 0 {
			t.Errorf("no seed compiles to a %s op (ops reached: %v)", kind, reached)
		}
	}
	t.Logf("permutation ops on two nodes by substrate: %v", substrates)
	for _, sub := range []string{cluster.SubstrateStatevec, cluster.SubstratePermutation} {
		if substrates[sub] == 0 {
			t.Errorf("no seed lowers a permutation op to %s on two nodes (substrates reached: %v)", sub, substrates)
		}
	}
}

// TestParitySeedsReachEveryFourierLowering keeps the Fourier seeds
// honest: compiled for the corpus's cluster targets, their transforms run
// across the node bits as the full-register and as the mid-width lowering,
// not only shard-locally.
func TestParitySeedsReachEveryFourierLowering(t *testing.T) {
	substrates := map[string]int{}
	for _, s := range paritySeeds() {
		if s[1] != 5 {
			continue
		}
		_, c := parityCircuit(s[0], uint8(s[1]), uint8(s[2]), uint8(s[3]))
		for _, p := range []int{2, 4} {
			x, err := backend.Compile(c, backend.Target{NumQubits: c.NumQubits, Kind: backend.Cluster, Nodes: p, FuseWidth: 3, Emulate: recognize.Auto})
			if err != nil {
				t.Fatal(err)
			}
			for i := range x.Units {
				if op := x.Units[i].Op; op != nil && op.Kind() == "qft" {
					substrates[x.Units[i].Substrate]++
				}
			}
		}
	}
	t.Logf("Fourier ops on two and four nodes by substrate: %v", substrates)
	for _, sub := range []string{cluster.SubstrateFourStepFFT, cluster.SubstrateFieldFFT} {
		if substrates[sub] == 0 {
			t.Errorf("no seed lowers a Fourier op to %s (substrates reached: %v)", sub, substrates)
		}
	}
}

// FuzzCompileParity is the one-path safety net: whatever Compile builds
// for a target — fused blocks, recognised shortcuts, placement schedules,
// the selector's pick — running it must equal the circuit applied gate by
// gate to 1e-10, and sample draw for draw like it under one seed. Its last
// row turns noise on at p = 0, which must be noise off (checkNoiseParity).
func FuzzCompileParity(f *testing.F) {
	for _, s := range paritySeeds() {
		f.Add(s[0], uint8(s[1]), uint8(s[2]), uint8(s[3]))
	}
	f.Fuzz(func(t *testing.T, seed uint64, family, width, size uint8) {
		name, c := parityCircuit(seed, family, width, size)
		ref := statevec.New(c.NumQubits)
		c.Run(ref)
		const draws = 64
		want := ref.SampleMany(draws, rng.New(seed))
		for _, pt := range parityTargets(c.NumQubits) {
			tname, target := pt.name, pt.t
			x, err := backend.Compile(c, target)
			if err != nil {
				t.Fatalf("%s/%s: Compile: %v", name, tname, err)
			}
			if err := backend.VerifyExecutable(x); err != nil {
				t.Fatalf("%s/%s: compiled executable fails verification: %v", name, tname, err)
			}
			b, err := backend.New(x.Target)
			if err != nil {
				t.Fatalf("%s/%s: New: %v", name, tname, err)
			}
			t.Cleanup(func() { b.Close() })
			if _, err := b.Run(x); err != nil {
				t.Fatalf("%s/%s: Run: %v", name, tname, err)
			}
			if d := b.State().MaxDiff(ref); d > 1e-10 {
				t.Fatalf("%s/%s: differs from the gate-by-gate state by %g", name, tname, d)
			}
			got := b.SampleMany(draws, rng.New(seed))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: draw %d is |%d>, gate by gate |%d>", name, tname, i, got[i], want[i])
				}
			}
		}
		checkNoiseParity(t, name, c, ref, seed, draws)
	})
}

// checkNoiseParity is FuzzCompileParity's noise row: c under a global
// depolarizing channel with p = 0, compiled at fused w=4 with recognition
// on. A point after every gate sends every recognised op back to gate
// level, so this is the row where they return. The executable's units must
// leave the gate-by-gate state ref to 1e-10, and draws trajectories of
// noise.Run must sample like ref draw for draw: trajectory t seeds its
// stream from the batch seed's master stream and draws one variate per
// noise point before it samples.
func checkNoiseParity(t *testing.T, name string, c *circuit.Circuit, ref *statevec.State, seed uint64, draws int) {
	t.Helper()
	noisy := circuit.New(c.NumQubits).Extend(c)
	noisy.SetGlobalNoise(circuit.Channel{Kind: circuit.Depolarizing, P: 0})
	x, err := backend.Compile(noisy, backend.Target{
		NumQubits: c.NumQubits, Kind: backend.Fused, FuseWidth: 4, Emulate: recognize.Auto})
	if err != nil {
		t.Fatalf("%s/noise-p0: Compile: %v", name, err)
	}
	if err := backend.VerifyExecutable(x); err != nil {
		t.Fatalf("%s/noise-p0: compiled executable fails verification: %v", name, err)
	}
	b, err := backend.New(x.Target)
	if err != nil {
		t.Fatalf("%s/noise-p0: New: %v", name, err)
	}
	t.Cleanup(func() { b.Close() })
	if err := b.RunUnits(x, 0, len(x.Units)); err != nil {
		t.Fatalf("%s/noise-p0: RunUnits: %v", name, err)
	}
	if d := b.State().MaxDiff(ref); d > 1e-10 {
		t.Fatalf("%s/noise-p0: differs from the gate-by-gate state by %g", name, d)
	}

	res, err := noise.Run(x, noise.Options{Trajectories: draws, Seed: seed})
	if err != nil {
		t.Fatalf("%s/noise-p0: noise.Run: %v", name, err)
	}
	if res.Points == 0 || res.Jumps != 0 || res.StruckUnits != 0 {
		t.Fatalf("%s/noise-p0: %d points, %d jumps, %d struck units; want points and no jumps", name, res.Points, res.Jumps, res.StruckUnits)
	}
	master := rng.New(seed)
	for i, got := range res.Outcomes {
		src := rng.New(master.Uint64())
		for range res.Points {
			src.Float64()
		}
		if want := ref.Sample(src); got != want {
			t.Fatalf("%s/noise-p0: trajectory %d sampled |%d>, gate by gate |%d>", name, i, got, want)
		}
	}
}
