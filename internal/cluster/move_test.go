package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fuse"
	"repro/internal/gates"
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
// per-element count.
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
				if got != wantStats {
					t.Errorf("%s: stats %+v, want %+v", name, got, wantStats)
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
// allocate no more than fanning one capturing closure out over the nodes allocates
// (eachNode's goroutines), so nothing of their own — the positions live in
// the Cluster's scratch, the kernels in the shards' layouts.
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
	var visited atomic.Int64
	fanOut := testing.AllocsPerRun(50, func() {
		c.eachNode(func(p int) { visited.Add(int64(p)) })
	})
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
		if allocs := testing.AllocsPerRun(50, func() { c.applyBlock(b) }); allocs > fanOut {
			t.Errorf("block on %v: %v allocs per applyBlock, the node fan-out alone takes %v", b.Qubits, allocs, fanOut)
		}
	}
	if !kinds["diag"] || !kinds["dense"] || !kinds["factored"] {
		t.Fatalf("plan held block kinds %v, want a dense, a factored and a diagonal one", kinds)
	}
}

// BenchmarkMoveBits reports what one collective round costs per amplitude
// for the shapes the engine produces: a scheduler remap exchanging high
// local positions with node positions (runs of 2^14), one reaching down to
// position 2 (runs of 4), a no-swap QFT's bit reversal and the four-step
// FFT's transpose (both tiled). An exchanged shard pair, the memcpy floor,
// is cluster.exchange_ns_per_amp in the benchmark's trace.
func BenchmarkMoveBits(b *testing.B) {
	const n, nodes = 20, 4
	swap := func(a, z uint) []uint {
		m := identityMap(n)
		m[a], m[z] = m[z], m[a]
		return m
	}
	reversal := identityMap(n)
	rotation := identityMap(n)
	for p := range reversal {
		reversal[p] = n - 1 - uint(p)
		rotation[p] = (uint(p) + n/2) % n
	}
	for _, sh := range []moveShape{
		{"high-swap-k14", swap(14, n-1)},
		{"k2", swap(2, n-1)},
		{"bit-reversal", reversal},
		{"transpose", rotation},
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
}
