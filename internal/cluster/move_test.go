package cluster

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fuse"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// moveShape is one generated bit map for the mover's tests and benchmark.
type moveShape struct {
	name  string
	srcOf []uint
}

func identityMap(n uint) []uint {
	m := make([]uint, n)
	for p := range m {
		m[p] = uint(p)
	}
	return m
}

// moveShapes generates the placements the collectives produce and the
// ones between them: identity, node bits only, the low k positions fixed
// (for every k) with the rest shuffled, position 0 exchanged with every
// other one, the full bit reversal, every rotation, and unconstrained
// shuffles.
func moveShapes(n, L uint, src *rng.Source) []moveShape {
	shuffleFrom := func(m []uint, k uint) {
		for i := n - 1; i > k; i-- {
			j := k + uint(src.Intn(int(i-k+1)))
			m[i], m[j] = m[j], m[i]
		}
	}
	shapes := []moveShape{{"identity", identityMap(n)}}
	m := identityMap(n)
	shuffleFrom(m, L)
	shapes = append(shapes, moveShape{"node-bits-only", m})
	for k := uint(0); k < n; k++ {
		m := identityMap(n)
		shuffleFrom(m, k)
		shapes = append(shapes, moveShape{fmt.Sprintf("low-%d-fixed", k), m})
	}
	for p := uint(1); p < n; p++ {
		m := identityMap(n)
		m[0], m[p] = m[p], m[0]
		shapes = append(shapes, moveShape{fmt.Sprintf("swap-0-%d", p), m})
	}
	m = identityMap(n)
	for p := range m {
		m[p] = n - 1 - uint(p)
	}
	shapes = append(shapes, moveShape{"bit-reversal", m})
	for r := uint(1); r < n; r++ {
		m := identityMap(n)
		for p := range m {
			m[p] = (uint(p) + r) % n
		}
		shapes = append(shapes, moveShape{fmt.Sprintf("rotate-%d", r), m})
	}
	for i := 0; i < 4; i++ {
		m := identityMap(n)
		shuffleFrom(m, 0)
		shapes = append(shapes, moveShape{fmt.Sprintf("shuffle-%d", i), m})
	}
	return shapes
}

// referenceMove is the oracle: the element-wise gather out[j] =
// in[scatter(j)], one bit at a time, with the traffic counted amplitude
// by amplitude and pair by pair.
func referenceMove(in []complex128, srcOf []uint, L uint) (out []complex128, crossing, pairs uint64) {
	out = make([]complex128, len(in))
	talked := map[[2]uint64]bool{}
	for j := range out {
		var i uint64
		for p, s := range srcOf {
			i |= (uint64(j) >> uint(p) & 1) << s
		}
		out[j] = in[i]
		if from, to := i>>L, uint64(j)>>L; from != to {
			crossing++
			talked[[2]uint64{from, to}] = true
		}
	}
	return out, crossing, uint64(len(talked))
}

// TestMoveBitsMatchesReference drives the collective over generated bit
// maps on every cluster shape: amplitudes must equal the element-wise
// reference exactly, and the four communication counters must equal the
// per-element count — zero on one node, where nothing crosses a link.
func TestMoveBitsMatchesReference(t *testing.T) {
	src := rng.New(20)
	sizes := []uint{6, 7, 9, 11, 14}
	if testing.Short() {
		sizes = []uint{6, 9, 12}
	}
	for _, n := range sizes {
		for _, p := range []int{1, 2, 4, 8} {
			c, err := New(n, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range moveShapes(n, c.L, src) {
				st := statevec.NewRandom(n, src)
				if err := c.LoadState(st); err != nil {
					t.Fatal(err)
				}
				want, crossing, pairs := referenceMove(st.Amplitudes(), sh.srcOf, c.L)
				c.ResetStats()
				c.permuteBits(sh.srcOf)
				name := fmt.Sprintf("n=%d P=%d %s", n, p, sh.name)
				local := c.LocalSize()
				for node := 0; node < p; node++ {
					for i, a := range c.shard(node) {
						if j := uint64(node)*local + uint64(i); a != want[j] {
							t.Fatalf("%s: amplitude %d is %v, want %v", name, j, a, want[j])
						}
					}
				}
				got := c.Stats.Snapshot()
				wantStats := StatsSnapshot{BytesSent: crossing * 16, Messages: pairs, AllToAlls: 1, Rounds: 1}
				if p == 1 {
					wantStats = StatsSnapshot{} // one node has no network
				}
				if got != wantStats {
					t.Errorf("%s: stats %+v, want %+v", name, got, wantStats)
				}
			}
		}
	}
}

// TestFillSharesCoverTheMove splits one move into 1, 2, 3 and 5 shares,
// as a one-node move splits over its shard's workers: in either regime
// the shares together must write every destination amplitude exactly as
// the element-wise reference, a share count that does not divide the
// units included.
func TestFillSharesCoverTheMove(t *testing.T) {
	const n = 11
	src := rng.New(22)
	for _, p := range []int{1, 4} {
		c, err := New(n, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range moveShapes(n, c.L, src) {
			st := statevec.NewRandom(n, src)
			if err := c.LoadState(st); err != nil {
				t.Fatal(err)
			}
			want, _, _ := referenceMove(st.Amplitudes(), sh.srcOf, c.L)
			m := planMove(sh.srcOf, c.L)
			for _, shares := range []int{1, 2, 3, 5} {
				dst := c.grabScratch()
				for node := range dst {
					clear(dst[node])
				}
				for w := 0; w < shares; w++ {
					m.fill(dst, c.liveShards(), w, shares)
				}
				for j, a := range want {
					if got := dst[uint64(j)>>c.L][uint64(j)&(c.LocalSize()-1)]; got != a {
						t.Fatalf("P=%d %s in %d shares: amplitude %d is %v, want %v", p, sh.name, shares, j, got, a)
					}
				}
			}
		}
	}
}

// TestMoverDoesNotAllocate pins the //qemu:hotpath contract on the mover:
// the plan (scatter tables, row offsets) is built once per collective,
// and the sweep that actually moves the state must not allocate, in the
// run-copy regime or the tiled one.
func TestMoverDoesNotAllocate(t *testing.T) {
	const n = 14
	c, err := New(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	highSwap := identityMap(n)
	highSwap[n-1], highSwap[n-3] = highSwap[n-3], highSwap[n-1]
	reversal := identityMap(n)
	for p := range reversal {
		reversal[p] = n - 1 - uint(p)
	}
	for _, sh := range []moveShape{{"run-copy", highSwap}, {"tiled", reversal}} {
		plan := planMove(sh.srcOf, c.L)
		if tiled := plan.rows > 0; tiled != (sh.name == "tiled") {
			t.Fatalf("%s: plan chose the other regime", sh.name)
		}
		dst, src := c.grabScratch(), c.liveShards()
		if allocs := testing.AllocsPerRun(50, func() {
			plan.fill(dst, src, 1, c.P)
		}); allocs != 0 {
			t.Errorf("%s: %v allocs per fill, want 0", sh.name, allocs)
		}
	}
}

// TestApplyBlockAddsNoAllocation pins the //qemu:hotpath contract on the
// per-block step of RunSchedule: a dense, a factored and a diagonal block
// allocate nothing — the superstep's body captures nothing (Cluster.each),
// the positions and tables live in the Cluster's scratch, the kernels in
// the shards' layouts.
func TestApplyBlockAddsNoAllocation(t *testing.T) {
	c, err := New(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.DiagonalOptimization = false // the diagonal block takes the ApplyDiagN arm
	circ := circuit.New(12)
	for q := uint(0); q < 4; q++ {
		circ.Append(gates.H(q), gates.Ry(q, 0.3))
	}
	circ.Append(gates.CNOT(0, 1), gates.CNOT(2, 3), gates.CNOT(1, 2))
	for q := uint(4); q < 8; q++ {
		circ.Append(gates.Rz(q, 0.2), gates.T(q))
	}
	circ.Append(gates.CZ(4, 5), gates.CZ(6, 7), gates.CZ(5, 6))
	// Two pairs nothing joins: a block of two Kronecker factors.
	pairs := circuit.New(12)
	for q := uint(0); q < 4; q++ {
		pairs.Append(gates.H(q), gates.Ry(q, 0.4))
	}
	pairs.Append(gates.CNOT(0, 1), gates.CNOT(2, 3), gates.Ry(1, 0.1), gates.Ry(3, 0.1))
	kinds := map[string]bool{}
	blocks := append(fuse.New(circ, 4).Blocks, fuse.New(pairs, 4).Blocks...)
	for i := range blocks {
		b := &blocks[i]
		switch {
		case b.Diag != nil:
			kinds["diag"] = true
		case b.Factors != nil:
			kinds["factored"] = true
		case b.Matrix != nil:
			kinds["dense"] = true
		default:
			continue
		}
		c.applyBlock(b) // first use allocates the shards' block layouts
		if allocs := testing.AllocsPerRun(50, func() { c.applyBlock(b) }); allocs != 0 {
			t.Errorf("block on %v: %v allocs per applyBlock, want 0", b.Qubits, allocs)
		}
	}
	if !kinds["diag"] || !kinds["dense"] || !kinds["factored"] {
		t.Fatalf("plan held block kinds %v, want a dense, a factored and a diagonal one", kinds)
	}

	// With the diagonal optimisation on, a diagonal block goes through its
	// table: under a placement that puts two of its qubits on node bits and
	// scrambles the rest, every node reads a reduced table from scratch.
	c.DiagonalOptimization = true
	placement := identityMap(12)
	placement[4], placement[10] = 10, 4
	placement[6], placement[11] = 11, 6
	placement[5], placement[7] = 7, 5
	c.Remap(placement)
	for i := range blocks {
		if b := &blocks[i]; b.Diag != nil {
			c.applyBlock(b)
			if allocs := testing.AllocsPerRun(50, func() { c.applyBlock(b) }); allocs != 0 {
				t.Errorf("diagonal block on %v under a drifted placement: %v allocs per applyBlock, want 0", b.Qubits, allocs)
			}
		}
	}
}

// TestFourStepDoesNotAllocate pins the //qemu:hotpath contract on the
// distributed QFT: once its move plans, scratch shards and twiddle tables
// exist, EmulateQFT allocates nothing — from the identity and from its
// own output order — on two, four and eight nodes (inline butterflies for
// one and two node bits, the shared plan for three). Its supersteps go
// through Cluster.each and the swapped placement lives in the Cluster.
func TestFourStepDoesNotAllocate(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		c, err := New(12, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.LoadState(statevec.NewRandom(12, rng.New(3))); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // one call from each entry placement
			if err := c.EmulateQFT(); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(12, func() {
			if err := c.EmulateQFT(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("P=%d: %v allocs per EmulateQFT, want 0", p, allocs)
		}
		if allocs := testing.AllocsPerRun(12, func() {
			c.Canonicalize()
			if err := c.EmulateQFT(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("P=%d: %v allocs per Canonicalize and EmulateQFT, want 0", p, allocs)
		}
	}
}

// TestCanonicalizeUndoesLowRunInPlace pins where Canonicalize reverses
// a descending run at the bottom of the shards: in place, never in the
// mover. On one node the QFT's reversal is the only drift, so nothing is
// moved and no scratch shard set is made; on four nodes the four-step's
// output order becomes the natural one before the mover is planned, so
// the only map it plans is the rotation by the node bits.
func TestCanonicalizeUndoesLowRunInPlace(t *testing.T) {
	for _, p := range []int{1, 4} {
		const n = 12
		c, err := New(n, p)
		if err != nil {
			t.Fatal(err)
		}
		st := statevec.NewRandom(n, rng.New(5))
		if err := c.LoadState(st); err != nil {
			t.Fatal(err)
		}
		if err := c.EmulateQFT(); err != nil {
			t.Fatal(err)
		}
		clear(c.moves)
		c.Canonicalize()
		if !c.identityPlacement() {
			t.Fatalf("P=%d: Canonicalize left placement %v", p, c.pos)
		}
		if p == 1 {
			if c.scratch != nil || len(c.moves) != 0 {
				t.Errorf("P=1: Canonicalize of the QFT's reversal used the mover")
			}
		} else {
			n1 := c.NodeBits
			rotation := make([]byte, n) // srcOf of the natural output order
			for q := uint(0); q < n; q++ {
				if q < n1 {
					rotation[q] = byte(c.L + q)
				} else {
					rotation[q] = byte(q - n1)
				}
			}
			if _, ok := c.moves[string(rotation)]; !ok || len(c.moves) != 1 {
				t.Errorf("P=%d: Canonicalize planned %d moves, want only the rotation by the node bits", p, len(c.moves))
			}
		}
		qft.Circuit(n).Run(st)
		if d := c.Gather().MaxDiff(st); d > 1e-10 {
			t.Errorf("P=%d: canonicalised QFT differs from the circuit by %g", p, d)
		}
	}
}

// BenchmarkMoveBits reports what one collective round costs per amplitude
// for the shapes the engine produces: a scheduler remap exchanging high
// local positions with node positions (runs of 2^14), one reaching down to
// position 2 (runs of 4), a no-swap QFT's bit reversal (tiled), and the
// two moves of the Fourier lowering — the swap of the node bits into
// [L-p, L) (runs of 2^(L-p)) and the canonicalize of the output order it
// leaves, a rotation by p (tiled) — Canonicalize from the output order
// of the four-step (its reversed run in place, then that rotation) and,
// on one node, the reversal a shard-local Fourier op leaves, in place
// against the mover. An
// exchanged shard pair, the memcpy floor, is
// cluster.exchange_ns_per_amp in the benchmark's trace.
func BenchmarkMoveBits(b *testing.B) {
	const n, nodes, p = 20, 4, 2
	const L = n - p
	swap := func(a, z uint) []uint {
		m := identityMap(n)
		m[a], m[z] = m[z], m[a]
		return m
	}
	reversal := identityMap(n)
	nodeSwap := identityMap(n)
	rotation := identityMap(n)
	for q := range reversal {
		reversal[q] = n - 1 - uint(q)
		rotation[q] = (uint(q) + L) % n
	}
	for j := uint(0); j < p; j++ {
		nodeSwap[L-p+j], nodeSwap[L+j] = L+j, L-p+j
	}
	for _, sh := range []moveShape{
		{"high-swap-k14", swap(14, n-1)},
		{"k2", swap(2, n-1)},
		{"bit-reversal", reversal},
		{"fourier-node-swap", nodeSwap},
		{"fourier-canonicalize", rotation},
	} {
		b.Run(sh.name, func(b *testing.B) {
			c, err := New(n, nodes)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.LoadState(statevec.NewRandom(n, rng.New(1))); err != nil {
				b.Fatal(err)
			}
			c.permuteBits(sh.srcOf) // allocates the scratch set
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.permuteBits(sh.srcOf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(uint64(1)<<n), "ns/amp")
		})
	}
	// Canonicalize from the placement the four-step leaves (logical 0 and
	// 1 on the node bits, the rest reversed below them): the reversed run
	// is undone in place, then the rotation by p moves. Setting the
	// placement relabels the random register without moving it.
	b.Run("fourier-output/canonicalize", func(b *testing.B) {
		c, err := New(n, nodes)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.LoadState(statevec.NewRandom(n, rng.New(1))); err != nil {
			b.Fatal(err)
		}
		out := identityMap(n)
		for q := range out {
			if q < p {
				out[q] = L + uint(q)
			} else {
				out[q] = n - 1 - uint(q)
			}
		}
		copy(c.pos, out)
		c.Canonicalize() // allocates the scratch set and plans the move
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(c.pos, out)
			c.Canonicalize()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(uint64(1)<<n), "ns/amp")
	})
	// One node holding the whole register, with the full-register
	// reversal a Fourier op's DIF network leaves in the placement: undone
	// in place by Canonicalize (fft's blocked reversal) against the
	// out-of-place mover, both at the shard's worker count.
	for _, path := range []string{"canonicalize", "mover"} {
		b.Run("one-node-reversal/"+path, func(b *testing.B) {
			c, err := New(n, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.LoadState(statevec.NewRandom(n, rng.New(1))); err != nil {
				b.Fatal(err)
			}
			c.permuteBits(reversal) // allocates the scratch set
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if path == "mover" {
					c.permuteBits(reversal)
					continue
				}
				c.reverseFieldPlacement(0, n)
				c.Canonicalize()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(uint64(1)<<n), "ns/amp")
		})
	}
	// The product state fill a fresh register starts a gate unit's product
	// prefix with, over the clusters of gate-sweep's prefix (2, 8 and 10
	// qubits, every one straddling the rows) and over emulate-mix's H^n
	// (20 one-qubit clusters: those inside a row merge into one factor
	// before the first fill), on one node and on four, beside a copy of
	// the whole register: each fill is held to at most two copies'
	// ns/amp. Every amplitude is in the product, so each fill overwrites
	// the last one whole and the register only needs marking fresh again.
	ones := make([][]uint, n)
	for q := range ones {
		ones[q] = []uint{uint(q)}
	}
	for _, fill := range []struct {
		name string
		p    product
	}{
		{"product-fill", productOf(n, [][]uint{{0, 18}, {1, 2, 4, 9, 10, 13, 15, 17}, {3, 5, 6, 7, 8, 11, 12, 14, 16, 19}})},
		{"product-fill-ones", productOf(n, ones)},
	} {
		for _, nodes := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/p=%d", fill.name, nodes), func(b *testing.B) {
				c, err := New(n, nodes)
				if err != nil {
					b.Fatal(err)
				}
				p := statevec.NewProduct(n, c.L, fill.p.qubits, fill.p.amps)
				c.FillProduct(p) // the first fill builds the merged factor
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.fresh = true
					c.FillProduct(p)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(uint64(1)<<n), "ns/amp")
			})
		}
	}
	b.Run("copy", func(b *testing.B) {
		src := statevec.NewRandom(n, rng.New(1))
		dst := statevec.NewZero(n)
		dst.CopyFrom(src)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst.CopyFrom(src)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(uint64(1)<<n), "ns/amp")
	})
}

// product is a product state's clusters and their random states.
type product struct {
	qubits [][]uint
	amps   [][]complex128
}

// productOf draws a random normalised state for each cluster.
func productOf(seed uint64, clusters [][]uint) product {
	src := rng.New(seed)
	p := product{qubits: clusters}
	for _, qs := range clusters {
		p.amps = append(p.amps, statevec.NewRandom(uint(len(qs)), src).Amplitudes())
	}
	return p
}
