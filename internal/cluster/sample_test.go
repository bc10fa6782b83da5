package cluster_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/circgen"
	"repro/internal/cluster"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// samplePlacements names the ways a register reaches the sampler under a
// drifted placement.
var samplePlacements = []string{"qft", "qft-field", "remap", "gates"}

// driftPlacement moves cl, holding a loaded state, to a placement of the
// named kind: a relabelled QFT of the whole register (its output order
// left in the placement), one of a field at pos > 0 one qubit wider than
// a shard, a random Remap, or a scheduled brickwork unit. Where the whole
// register's relabel cancels the output order and leaves the identity —
// on one node, and on two, where the four-step reverses every shard bit
// below the node bit — the QFT with swaps follows it. It reports false
// where the kind does not apply to cl's shape: a field needs two qubits
// and a lowering, a gate unit a local qubit.
func driftPlacement(t *testing.T, cl *cluster.Cluster, kind string, src *rng.Source) bool {
	t.Helper()
	n := cl.NumQubits()
	switch kind {
	case "qft", "qft-field":
		pos, w := uint(0), n
		if kind == "qft-field" {
			w = min(cl.L+1, n-1)
			pos = n - w
		}
		if w < 2 {
			return false
		}
		op := planOps(t, qft.Field(n, pos, w, false), recognize.Annotated)[0]
		if _, ok := cluster.Lowerable(op, n, cl.L, cl.P); !ok {
			return false
		}
		if _, err := cl.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
		if kind == "qft" && canonical(cl) {
			swaps := planOps(t, qft.Field(n, 0, n, true), recognize.Annotated)[0]
			if _, err := cl.ApplyOp(swaps); err != nil {
				t.Fatal(err)
			}
		}
	case "remap":
		cl.Remap(shuffledPlacement(n, src))
	case "gates":
		if cl.L < 1 {
			return false
		}
		schedule(t, cl, circgen.Brickwork(src, n, 3), int(min(cl.L, 2)))
	default:
		t.Fatalf("unknown placement kind %q", kind)
	}
	return true
}

// checkDraws compares cl's draws draw for draw with the single-node
// sampler's over the gathered state, for SampleMany and Sample, and
// checks that sampling on several nodes leaves the placement where it
// was (one node canonicalises) and charges what sampleStats counts.
func checkDraws(t *testing.T, cl *cluster.Cluster, k int, seed uint64, what string) {
	t.Helper()
	pos := cl.Placement()
	ref := cl.Gather()
	want := ref.SampleMany(k, rng.New(seed))
	before := cl.Stats.Snapshot()
	got := cl.SampleMany(k, rng.New(seed))
	if cl.P > 1 {
		if s, w := statsSince(cl, before), sampleStats(cl, pos, got); s != w {
			t.Fatalf("%s: SampleMany charged %+v, want %+v", what, s, w)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: draw %d is |%d>, single node |%d>", what, i, got[i], want[i])
		}
	}
	if g, w := cl.Sample(rng.New(seed+1)), ref.Sample(rng.New(seed+1)); g != w {
		t.Fatalf("%s: Sample is |%d>, single node |%d>", what, g, w)
	}
	for q, p := range cl.Placement() {
		if cl.P > 1 && p != pos[q] {
			t.Fatalf("%s: sampling moved the placement from %v to %v", what, pos, cl.Placement())
		}
	}
}

// statsSince returns what cl's counters gained since before.
func statsSince(cl *cluster.Cluster, before cluster.StatsSnapshot) cluster.StatsSnapshot {
	s := cl.Stats.Snapshot()
	return cluster.StatsSnapshot{
		BytesSent: s.BytesSent - before.BytesSent,
		Messages:  s.Messages - before.Messages,
		Exchanges: s.Exchanges - before.Exchanges,
		AllToAlls: s.AllToAlls - before.AllToAlls,
		Rounds:    s.Rounds - before.Rounds,
	}
}

// sampleStats counts, amplitude by amplitude, what a multi-node draw
// of the outcomes draws under placement pos communicates: every node but
// node 0 sends its table of 2^(n-b) block masses, then the walk reads
// every block that holds an outcome, 8 bytes per weight that lies off
// node 0, one message from each node that holds any.
func sampleStats(cl *cluster.Cluster, pos []uint, draws []uint64) cluster.StatsSnapshot {
	n := cl.NumQubits()
	b := min(n, max(6, n-min(n, 14)))
	s := cluster.StatsSnapshot{
		BytesSent: uint64(cl.P-1) << (n - b) * 8,
		Messages:  uint64(cl.P - 1),
		Rounds:    1,
	}
	blocks := map[uint64]bool{}
	for _, x := range draws {
		blocks[x>>b] = true
	}
	senders := map[uint64]bool{}
	for blk := range blocks {
		for off := uint64(0); off < 1<<b; off++ {
			x := blk<<b | off
			var node uint64
			for q, t := range pos {
				if t >= cl.L {
					node |= x >> uint(q) & 1 << (t - cl.L)
				}
			}
			if node != 0 {
				s.BytesSent += 8
				senders[node] = true
			}
		}
	}
	if len(senders) > 0 {
		s.Messages += uint64(len(senders))
		s.Rounds++
	}
	return s
}

// scaledRandom returns a random n-qubit state of norm^2 mass.
func scaledRandom(n uint, mass float64, src *rng.Source) *statevec.State {
	st := statevec.NewRandom(n, src)
	s := complex(math.Sqrt(mass), 0)
	amps := st.Amplitudes()
	for i := range amps {
		amps[i] *= s
	}
	return st
}

// sampleCase runs one generated case: a register of n qubits on p nodes,
// loaded with a random state of the given mass, drifted by kind, then
// sampled against the gathered state. With oneNode the state is built so
// that under the drifted placement every amplitude lies on one node. It
// reports whether the case ran from a placement other than the identity.
func sampleCase(t *testing.T, n uint, p int, kind string, mass float64, oneNode bool, seed uint64) bool {
	t.Helper()
	src := rng.New(seed)
	cl, err := cluster.New(n, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadState(scaledRandom(n, mass, src)); err != nil {
		t.Fatal(err)
	}
	if !driftPlacement(t, cl, kind, src) {
		return false
	}
	what := fmt.Sprintf("n=%d P=%d %s mass %g", n, p, kind, mass)
	if oneNode {
		// Keep the amplitudes of one node under the drifted placement:
		// load the kept state, then move it there.
		pos := cl.Placement()
		st := cl.Gather()
		node := src.Uint64() % uint64(p)
		amps := st.Amplitudes()
		for x := range amps {
			var phys uint64
			for q, t := range pos {
				phys |= uint64(x) >> uint(q) & 1 << t
			}
			if phys>>cl.L != node {
				amps[x] = 0
			}
		}
		if err := cl.LoadState(st); err != nil {
			t.Fatal(err)
		}
		cl.Remap(pos)
		what += fmt.Sprintf(", mass on node %d", node)
	}
	checkDraws(t, cl, 512, seed, what)
	return !canonical(cl)
}

// canonical reports whether cl's placement is the identity.
func canonical(cl *cluster.Cluster) bool {
	for q, p := range cl.Placement() {
		if uint(q) != p {
			return false
		}
	}
	return true
}

// TestSampleUnderPlacement holds the multi-node sampler, which reads the
// state under whatever placement it finds, to the single-node sampler on
// the gathered state, draw for draw, at P = 1, 2, 4 and 8: after a
// relabelled QFT of the whole register and of a field at pos > 0, a
// random remap and a scheduled gate unit; on registers of one qubit per
// node bit (a shard of one amplitude), narrower than a block, of a few
// blocks and of one block table's full size; on states of norm^2 0.9 and
// 1 + 1e-9, whose draws past the total mass clamp to the highest
// supported outcome; and with all the mass on one node, of norm^2 0.9,
// so the clamp passes over the other nodes' zeros.
func TestSampleUnderPlacement(t *testing.T) {
	seed := uint64(1)
	for _, p := range []int{1, 2, 4, 8} {
		nodeBits := uint(0)
		for 1<<nodeBits < p {
			nodeBits++
		}
		drifted := map[string]int{}
		for _, n := range []uint{max(nodeBits, 1), max(nodeBits, 4), 5, 9, 13} {
			for _, kind := range samplePlacements {
				for _, mass := range []float64{1, 0.9, 1 + 1e-9} {
					seed++
					if sampleCase(t, n, p, kind, mass, false, seed) {
						drifted[kind]++
					}
				}
				seed++
				if sampleCase(t, n, p, kind, 0.9, true, seed) {
					drifted[kind]++
				}
			}
		}
		for _, kind := range samplePlacements {
			if p > 1 && drifted[kind] < 8 {
				t.Errorf("P=%d: only %d %s cases sampled from a drifted placement", p, drifted[kind], kind)
			}
		}
	}
	if testing.Short() {
		return
	}
	// At n = 21 the block grows to 2^7 amplitudes, keeping the table at
	// 2^14 masses.
	for _, kind := range samplePlacements {
		seed++
		sampleCase(t, 21, 4, kind, 1, false, seed)
	}
}

// TestSampleZeroVectorPanics checks that the sampler refuses the zero
// vector under a drifted placement with its message, on one node and on
// several.
func TestSampleZeroVectorPanics(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		cl, err := cluster.New(6, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.LoadState(statevec.NewZero(6)); err != nil {
			t.Fatal(err)
		}
		cl.Remap(shuffledPlacement(6, rng.New(uint64(p))))
		for name, draw := range map[string]func(){
			"Sample":     func() { cl.Sample(rng.New(1)) },
			"SampleMany": func() { cl.SampleMany(8, rng.New(1)) },
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if p > 1 && msg != "cluster: sampling from the zero vector" ||
						p == 1 && !strings.Contains(msg, "sampling from the zero vector") {
						t.Errorf("P=%d %s of the zero vector panicked with %q", p, name, msg)
					}
				}()
				draw()
			}()
		}
	}
}

// FuzzClusterSample is TestSampleUnderPlacement on generated cases: the
// placement's kind, the node count, the width (from one qubit per node
// bit up to 14), the state's mass and the seed.
func FuzzClusterSample(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(10), uint8(0), uint64(1))
	f.Add(uint8(1), uint8(3), uint8(3), uint8(1), uint64(2))
	f.Add(uint8(2), uint8(1), uint8(1), uint8(2), uint64(3))
	f.Add(uint8(3), uint8(2), uint8(7), uint8(3), uint64(4))
	f.Fuzz(func(t *testing.T, kind, pLog, n, mass uint8, seed uint64) {
		nodeBits := uint(pLog % 4)
		width := max(1, nodeBits+uint(n)%(15-nodeBits))
		norms := []float64{1, 0.9, 1 + 1e-9, 0.9}
		sampleCase(t, width, 1<<nodeBits, samplePlacements[int(kind)%len(samplePlacements)],
			norms[mass%4], mass%4 == 3, seed)
	})
}

// TestSampleAllocations pins what a draw allocates on a drifted
// placement with serial shards, once the sampler's scratch is sized:
// Sample nothing, SampleMany(1024) only statevec.SampleSorted's draws and
// outcomes. One node samples through statevec.ResolveCDF's one-chunk walk,
// and a serial State's own Sample walks in place, allocating nothing.
func TestSampleAllocations(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		cl, err := cluster.New(12, p)
		if err != nil {
			t.Fatal(err)
		}
		cl.SetNodeParallelism(1)
		src := rng.New(uint64(p))
		loadRandom(t, cl, src)
		cl.Remap(shuffledPlacement(12, src))
		if a := testing.AllocsPerRun(20, func() { cl.Sample(src) }); a != 0 {
			t.Errorf("P=%d: Sample allocates %v times, want 0", p, a)
		}
		if a := testing.AllocsPerRun(20, func() { cl.SampleMany(1024, src) }); a != 2 {
			t.Errorf("P=%d: SampleMany(1024) allocates %v times, want 2", p, a)
		}
	}
	src := rng.New(5)
	st := statevec.NewRandom(12, src)
	st.SetParallelism(1)
	if a := testing.AllocsPerRun(20, func() { st.Sample(src) }); a != 0 {
		t.Errorf("serial State.Sample allocates %v times, want 0", a)
	}
}

// drawSink keeps the benchmarked draws live.
var drawSink []uint64

// BenchmarkSampleUnderPlacement times SampleMany(1024) at P = 4 under
// the placement a full-register QFT leaves (logical 0 and 1 on the node
// bits, the rest reversed below them) and under a random one, beside Canonicalize
// from the same placement (what the sampler paid before its walk when it
// canonicalised) and CopyFrom, every node copying its shard in the same
// superstep fan-out (the read floor), all in ns per amplitude.
func BenchmarkSampleUnderPlacement(b *testing.B) {
	for _, n := range []uint{20, 22} {
		postQFT := []uint{n - 2, n - 1}
		for q := uint(2); q < n; q++ {
			postQFT = append(postQFT, n-1-q)
		}
		cl, err := cluster.New(n, 4)
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.LoadState(statevec.NewRandom(n, rng.New(1))); err != nil {
			b.Fatal(err)
		}
		perAmp := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(uint64(1)<<n), "ns/amp")
		}
		for _, pl := range []struct {
			name string
			pos  []uint
		}{
			{"post-qft", postQFT},
			{"random", shuffledPlacement(n, rng.New(uint64(n)))},
		} {
			b.Run(fmt.Sprintf("n=%d/%s/sample", n, pl.name), func(b *testing.B) {
				cl.Remap(pl.pos)
				src := rng.New(2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					drawSink = cl.SampleMany(1024, src)
				}
				perAmp(b)
			})
			b.Run(fmt.Sprintf("n=%d/%s/canonicalize", n, pl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					cl.Remap(pl.pos)
					b.StartTimer()
					cl.Canonicalize()
				}
				perAmp(b)
			})
		}
		b.Run(fmt.Sprintf("n=%d/copy", n), func(b *testing.B) {
			dst, err := cluster.New(n, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dst.CopyFrom(cl); err != nil {
					b.Fatal(err)
				}
			}
			perAmp(b)
		})
	}
}
