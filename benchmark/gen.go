package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qasm"
	"repro/internal/qft"
	"repro/internal/revlib"
	"repro/internal/rng"
)

// Seeded input generators. Every workload's inputs are a pure function of
// (seed, workload name, size); the program under test only ever receives
// the qasm text (or, for noise-traj, the circuit parsed back from it).
// Generators emit only gates qasm.Write can print and check its error:
// a lowered arithmetic circuit contains controlled sqrt(X), which has no
// textual form, and a dropped Write error would silently truncate the
// source.

// stream derives an independent generator per (seed, purpose) pair so the
// workloads of one seed do not share a random stream.
func stream(seed uint64, purpose string) *rng.Source {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rng.New(seed*0x9e3779b97f4a7c15 ^ h.Sum64())
}

// qasmText serialises c, failing loudly on a gate without a textual form.
func qasmText(c *circuit.Circuit) (string, error) {
	var b strings.Builder
	if err := qasm.Write(&b, c); err != nil {
		return "", err
	}
	return b.String(), nil
}

// randAngle avoids the neighbourhood of 0 and 2π so no rotation collapses
// to (or round-trips as) the identity.
func randAngle(src *rng.Source) float64 {
	return 0.1 + src.Float64()*(2*math.Pi-0.2)
}

// shapeSeed seeds the stream that decides which gate sits where in the
// gate-level halves of gate-sweep and cluster-shard; their seed draws the
// angles only. What such a circuit costs is set by placement — which gates
// are diagonal, which qubits a fused block spans, which targets live on a
// node qubit: over ten seeds a free draw moved gate-sweep's dense-block
// count by ±8% and cluster-shard's unit count between 2 and 12 — so a free
// draw would make the seed a price tag. The other workloads average over
// many circuits or are dominated by recognised regions and draw everything
// from the seed.
const shapeSeed = 1

// randRotation draws the angle from src and the axis from shape; callers
// with one stream pass it twice.
func randRotation(shape, src *rng.Source, q uint) gates.Gate {
	theta := randAngle(src)
	switch shape.Intn(3) {
	case 0:
		return gates.Rx(q, theta)
	case 1:
		return gates.Ry(q, theta)
	default:
		return gates.Rz(q, theta)
	}
}

func randEntangler(src *rng.Source, a, b uint) gates.Gate {
	if src.Intn(2) == 0 {
		return gates.CNOT(a, b)
	}
	return gates.CZ(a, b)
}

// rotationLayer appends one random rotation per qubit.
func rotationLayer(c *circuit.Circuit, shape, src *rng.Source) {
	for q := uint(0); q < c.NumQubits; q++ {
		c.Append(randRotation(shape, src, q))
	}
}

// genGateSweep is the unstructured circuit of the gate-sweep workload:
// layers of a random one-qubit rotation on every qubit followed by CNOT/CZ
// between the low and the high half of the register under a random
// bijection, control and target in random order. Every pair is long-range
// and half the targets are high qubits. Pairing halves (rather than a
// free random matching) keeps the mix of qubit positions in each fused
// block — which is what a dense sweep's cost depends on — alike. Axes,
// pairs and entangler kinds come from shape, angles from src (see
// shapeSeed). Nothing in it is recognisable.
func genGateSweep(shape, src *rng.Source, n uint, layers int) *circuit.Circuit {
	c := circuit.New(n)
	half := int(n) / 2
	for l := 0; l < layers; l++ {
		rotationLayer(c, shape, src)
		for lo, hi := range shape.Perm(half) {
			a, b := uint(lo), uint(half+hi)
			if shape.Intn(2) == 0 {
				a, b = b, a
			}
			c.Append(randEntangler(shape, a, b))
		}
	}
	return c
}

// allQubitArgs is the "w q*w" prefix of the phaseflip / reflect-uniform
// region arguments over the whole register.
func allQubitArgs(n uint) []uint64 {
	args := []uint64{uint64(n)}
	for q := uint(0); q < n; q++ {
		args = append(args, uint64(q))
	}
	return args
}

// appendGrover appends one Grover iteration — a phase-flip oracle on
// |marked> and the diffusion reflection — with the region annotations the
// dispatcher lowers to a sign flip and a Householder reflection.
func appendGrover(c *circuit.Circuit, marked uint64) {
	n := c.NumQubits
	controls := make([]uint, n-1)
	for i := range controls {
		controls[i] = uint(i) + 1
	}
	mcz := gates.Z(0).WithControls(controls...)
	lo := c.Len()
	for q := uint(0); q < n; q++ {
		if (marked>>q)&1 == 0 {
			c.Append(gates.X(q))
		}
	}
	c.Append(mcz)
	for q := uint(0); q < n; q++ {
		if (marked>>q)&1 == 0 {
			c.Append(gates.X(q))
		}
	}
	c.Annotate(circuit.Region{Name: "phaseflip", Args: append(allQubitArgs(n), marked), Lo: lo, Hi: c.Len()})
	lo = c.Len()
	for q := uint(0); q < n; q++ {
		c.Append(gates.H(q), gates.X(q))
	}
	c.Append(mcz)
	for q := uint(0); q < n; q++ {
		c.Append(gates.X(q), gates.H(q))
	}
	c.Annotate(circuit.Region{Name: "reflect-uniform", Args: allQubitArgs(n), Lo: lo, Hi: c.Len()})
}

// appendDiagonalRun appends count random controlled-phase / Rz gates over
// the window [pos, pos+width): a ZZ-phase run the dispatcher folds into one
// precomputed diagonal (width must stay within its 16-qubit table bound).
func appendDiagonalRun(c *circuit.Circuit, src *rng.Source, pos, width uint, count int) {
	for i := 0; i < count; i++ {
		a := pos + uint(src.Intn(int(width)))
		if width > 1 && src.Intn(4) != 0 {
			b := pos + uint(src.Intn(int(width)-1))
			if b >= a {
				b++
			}
			c.Append(gates.CR(a, b, randAngle(src)))
			continue
		}
		c.Append(gates.Rz(a, randAngle(src)))
	}
}

// genEmulateMix is the paper's headline path in one circuit: H^n, two
// Grover iterations (phase flip + reflection), a ripple adder on two
// sub-registers (permutation), a ZZ-phase run (diagonal), and a QFT and
// its inverse (FFT), with a thin layer of unrecognisable rotations in
// between so the fused kernels are not entirely idle. More than 90% of
// the gates sit inside recognised regions.
func genEmulateMix(src *rng.Source, n uint) *circuit.Circuit {
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		c.Append(gates.H(q))
	}
	for it := 0; it < 2; it++ {
		appendGrover(c, src.Uint64n(uint64(1)<<n))
	}
	rotationLayer(c, src, src)
	w := (n - 1) / 2
	revlib.Adder(c, revlib.Seq(0, w), revlib.Seq(w, w), 2*w)
	diagWidth := n
	if diagWidth > 14 {
		diagWidth = 14
	}
	appendDiagonalRun(c, src, uint(src.Intn(int(n-diagWidth)+1)), diagWidth, 3*int(n))
	c.Extend(qft.Circuit(n))
	rotationLayer(c, src, src)
	c.Extend(qft.InverseCircuit(n))
	return c
}

// genClusterShard is a brickwork half — rotation layers with CNOT/CZ on
// neighbouring pairs in alternating offsets, reaching into the node
// qubits so the scheduler has remaps to plan — followed by a recognisable
// full-register QFT that lowers to the distributed four-step FFT.
func genClusterShard(shape, src *rng.Source, n uint, layers int) *circuit.Circuit {
	c := genBrickwork(shape, src, n, layers)
	c.Extend(qft.Circuit(n))
	return c
}

// genBrickwork is rotation layers with CNOT/CZ on neighbouring pairs in
// alternating offsets: the unstructured filler of the small-circuit
// corpora and the gate half of cluster-shard. Axes and entangler kinds come
// from shape, angles from src.
func genBrickwork(shape, src *rng.Source, n uint, layers int) *circuit.Circuit {
	c := circuit.New(n)
	for l := 0; l < layers; l++ {
		rotationLayer(c, shape, src)
		for q := uint(l % 2); q+1 < n; q += 2 {
			c.Append(randEntangler(shape, q, q+1))
		}
	}
	return c
}

// stripRegions returns c without its annotations, the form in which the
// pattern matchers (not the annotation fast path) must find the structure.
func stripRegions(c *circuit.Circuit) *circuit.Circuit {
	return &circuit.Circuit{NumQubits: c.NumQubits, Gates: c.Gates}
}

// namedCircuit is one entry of a generated corpus.
type namedCircuit struct {
	Name string
	Text string
	// Lying marks the one circuit whose annotation misdescribes its
	// gates; compilation must report it in Skipped and run it gate-level.
	Lying bool
}

// genCompileCorpus builds count distinct small circuits covering every
// shape the recognition and planning passes treat differently. Shape,
// width and length are functions of the index, so the cost distribution
// of the corpus is the same for every seed; the seed picks angles, marked
// states and entangler kinds. Gate counts land in 150-600. The last
// circuit carries the lying annotation.
func genCompileCorpus(src *rng.Source, count int, sizes []uint) ([]namedCircuit, error) {
	shapes := []struct {
		name  string
		build func(src *rng.Source, n uint, minGates int) *circuit.Circuit
	}{
		{"qft-sandwich", corpusQFTSandwich},
		{"adder", corpusAdder},
		{"multiplier", corpusMultiplier},
		{"grover", corpusGrover},
		{"diagonal", corpusDiagonal},
		{"brickwork", corpusBrickwork},
	}
	var out []namedCircuit
	for i := 0; i < count; i++ {
		// Six shapes against five sizes: every pairing occurs within 30
		// circuits, and each shape alternates annotated and stripped.
		n := sizes[i%len(sizes)]
		shape := shapes[i%len(shapes)]
		annotated := (i/len(shapes))%2 == 0
		minGates := 150 + i*37%300
		var c *circuit.Circuit
		nc := namedCircuit{}
		if i == count-1 {
			c = corpusLyingAdder(src, minGates)
			nc.Name, nc.Lying = fmt.Sprintf("%02d-lying-adder-n%d", i, c.NumQubits), true
		} else {
			c = shape.build(src, n, minGates)
			if !annotated {
				c = stripRegions(c)
			}
			tag := "annotated"
			if !annotated {
				tag = "stripped"
			}
			nc.Name = fmt.Sprintf("%02d-%s-%s-n%d", i, shape.name, tag, n)
		}
		text, err := qasmText(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", nc.Name, err)
		}
		nc.Text = text
		out = append(out, nc)
	}
	return out, nil
}

func corpusQFTSandwich(src *rng.Source, n uint, minGates int) *circuit.Circuit {
	c := circuit.New(n)
	rotationLayer(c, src, src)
	for c.Len() < minGates {
		c.Extend(qft.Circuit(n))
		appendDiagonalRun(c, src, 0, n, 2*int(n))
		rotationLayer(c, src, src)
		c.Extend(qft.InverseCircuit(n))
	}
	return c
}

func corpusAdder(src *rng.Source, n uint, minGates int) *circuit.Circuit {
	c := circuit.New(n)
	w := (n - 1) / 2
	a, b := revlib.Seq(0, w), revlib.Seq(w, w)
	for c.Len() < minGates {
		rotationLayer(c, src, src)
		revlib.Adder(c, a, b, 2*w)
		rotationLayer(c, src, src)
		revlib.Subtractor(c, a, b, 2*w)
	}
	return c
}

func corpusMultiplier(src *rng.Source, n uint, minGates int) *circuit.Circuit {
	m := (n - 1) / 3
	if m < 2 {
		return corpusAdder(src, n, minGates) // a 2-bit multiplier needs 7 qubits
	}
	c := circuit.New(n)
	l := revlib.NewMultiplierLayout(m)
	for c.Len() < minGates {
		rotationLayer(c, src, src)
		revlib.Multiplier(c, l.A, l.B, l.C, l.CarryAnc)
	}
	return c
}

func corpusGrover(src *rng.Source, n uint, minGates int) *circuit.Circuit {
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		c.Append(gates.H(q))
	}
	for c.Len() < minGates {
		appendGrover(c, src.Uint64n(uint64(1)<<n))
	}
	return c
}

func corpusDiagonal(src *rng.Source, n uint, minGates int) *circuit.Circuit {
	c := circuit.New(n)
	for c.Len() < minGates {
		for q := uint(0); q < n; q++ {
			c.Append(gates.H(q))
		}
		appendDiagonalRun(c, src, 0, n, 4*int(n))
	}
	return c
}

func corpusBrickwork(src *rng.Source, n uint, minGates int) *circuit.Circuit {
	return genBrickwork(src, src, n, minGates/int(n+n/2)+1)
}

// corpusLyingAdder annotates a 3-bit adder whose gate list has one extra
// X in it as a plain "add". The support is 7 qubits, so recognition's
// brute-force check fires, rejects the region and reports it in Skipped.
func corpusLyingAdder(src *rng.Source, minGates int) *circuit.Circuit {
	const n, w = 8, 3
	c := circuit.New(n)
	for c.Len() < minGates {
		rotationLayer(c, src, src)
		sub := circuit.New(n)
		revlib.Adder(sub, revlib.Seq(0, w), revlib.Seq(w, w), 2*w)
		lo := c.Len()
		c.Append(sub.Gates[:len(sub.Gates)/2]...)
		c.Append(gates.X(1))
		c.Append(sub.Gates[len(sub.Gates)/2:]...)
		c.Annotate(circuit.Region{Name: "add", Args: sub.Regions[0].Args, Lo: lo, Hi: c.Len()})
	}
	return c
}

// genNoiseTraj is the noisy-trajectory circuit: (prep rotations, QFT, a
// CNOT/Ry ladder, inverse QFT) twice, under a global depolarizing channel.
// Every gate is followed by noise insertion points, so the executable has
// one unit per gate and no recognised region survives.
func genNoiseTraj(src *rng.Source, n uint, p float64) *circuit.Circuit {
	c := circuit.New(n)
	for rep := 0; rep < 2; rep++ {
		rotationLayer(c, src, src)
		c.Extend(stripRegions(qft.Circuit(n)))
		for q := uint(0); q+1 < n; q++ {
			c.Append(gates.CNOT(q, q+1), gates.Ry(q+1, randAngle(src)))
		}
		c.Extend(stripRegions(qft.InverseCircuit(n)))
	}
	c.SetGlobalNoise(circuit.Channel{Kind: circuit.Depolarizing, P: p})
	return c
}
