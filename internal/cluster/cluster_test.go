package cluster_test

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

func loadRandom(t *testing.T, c *cluster.Cluster, src *rng.Source) *statevec.State {
	t.Helper()
	st := statevec.NewRandom(c.NumQubits(), src)
	if err := c.LoadState(st); err != nil {
		t.Fatal(err)
	}
	return st
}

// applyInverseQFT runs the inverse QFT of the whole register on c as the
// backend does: the recognised op of the inverse QFT circuit through
// ApplyOp, on the four-step FFT.
func applyInverseQFT(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	op := planOps(t, qft.Circuit(c.NumQubits()).Dagger(), recognize.Annotated)[0]
	if sub, err := c.ApplyOp(op); err != nil || sub != cluster.SubstrateFourStepFFT {
		t.Fatalf("inverse QFT lowered to %q, %v", sub, err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := cluster.New(4, 3); err == nil {
		t.Error("non-power-of-two node count accepted")
	}
	if _, err := cluster.New(2, 8); err == nil {
		t.Error("more node bits than qubits accepted")
	}
	c, err := cluster.New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.L != 8 || c.NodeBits != 2 || c.LocalSize() != 256 {
		t.Fatalf("layout wrong: L=%d nodeBits=%d", c.L, c.NodeBits)
	}
}

func TestGatherLoadRoundTrip(t *testing.T) {
	src := rng.New(1)
	c, _ := cluster.New(8, 4)
	st := loadRandom(t, c, src)
	if d := c.Gather().MaxDiff(st); d > 0 {
		t.Errorf("gather/load round trip differs by %g", d)
	}
	// A remap moves amplitudes, not the logical state: Gather must undo
	// whatever placement it finds, bit for bit.
	for _, placement := range [][]uint{
		{7, 6, 5, 4, 3, 2, 1, 0},
		{0, 1, 7, 3, 4, 5, 6, 2},
		{3, 5, 0, 7, 1, 6, 2, 4},
	} {
		c.Remap(placement)
		if d := c.Gather().MaxDiff(st); d > 0 {
			t.Errorf("gather under placement %v differs by %g", placement, d)
		}
	}
}

// TestDistributedMatchesLocal is the substrate's core correctness claim:
// any gate sequence on the cluster must equal the single-node simulation.
func TestDistributedMatchesLocal(t *testing.T) {
	src := rng.New(2)
	for _, p := range []int{1, 2, 4, 8} {
		n := uint(8)
		c, err := cluster.New(n, p)
		if err != nil {
			t.Fatal(err)
		}
		st := loadRandom(t, c, src)
		local := st.Clone()

		gs := []gates.Gate{
			gates.H(0), gates.H(7), gates.X(6), gates.CNOT(2, 7),
			gates.CNOT(7, 1), gates.CR(5, 6, 0.7), gates.CR(6, 2, 1.2),
			gates.Rz(7, 0.5), gates.T(5), gates.Toffoli(6, 7, 0),
			gates.Toffoli(0, 1, 7), gates.Y(4), gates.Phase(6, 2.2),
		}
		for _, g := range gs {
			c.ApplyGate(g)
			local.ApplyGate(g)
		}
		if d := c.Gather().MaxDiff(local); d > 1e-10 {
			t.Fatalf("p=%d: distributed differs from local by %g", p, d)
		}
	}
}

func TestDiagonalGatesAvoidCommunication(t *testing.T) {
	// With the optimisation on, CR/Rz/Z on node qubits must move no bytes;
	// with it off (qHiPSTER-class), every node-qubit gate pays an exchange.
	src := rng.New(3)
	n := uint(8)
	c, _ := cluster.New(n, 4) // node qubits: 6, 7
	loadRandom(t, c, src)

	c.ResetStats()
	c.ApplyGate(gates.CR(2, 7, 0.5)) // diagonal, node-qubit target
	c.ApplyGate(gates.Rz(6, 0.3))
	c.ApplyGate(gates.Z(7))
	if got := c.Stats.BytesSent.Load(); got != 0 {
		t.Errorf("diagonal optimisation moved %d bytes", got)
	}

	c.DiagonalOptimization = false
	c.ResetStats()
	c.ApplyGate(gates.CR(2, 7, 0.5))
	if got := c.Stats.Exchanges.Load(); got == 0 {
		t.Error("generic mode did not exchange for node-qubit diagonal gate")
	}
	c.DiagonalOptimization = true
}

func TestGenericModeStillCorrect(t *testing.T) {
	src := rng.New(4)
	n := uint(7)
	c, _ := cluster.New(n, 4)
	c.DiagonalOptimization = false
	st := loadRandom(t, c, src)
	local := st.Clone()
	for _, g := range []gates.Gate{gates.CR(0, 6, 1.1), gates.H(5), gates.CNOT(6, 5), gates.Z(6)} {
		c.ApplyGate(g)
		local.ApplyGate(g)
	}
	if d := c.Gather().MaxDiff(local); d > 1e-10 {
		t.Fatalf("generic cluster differs from local by %g", d)
	}
}

func TestHadamardOnNodeQubitCommunicates(t *testing.T) {
	// Eq. 6's claim: one full-state exchange per Hadamard on a node qubit.
	src := rng.New(5)
	n := uint(8)
	c, _ := cluster.New(n, 4)
	loadRandom(t, c, src)
	c.ResetStats()
	c.ApplyGate(gates.H(7))
	// Each of the 2 node pairs exchanges both shards: all bytes move once.
	wantBytes := c.LocalSize() * 16 * 4 // 4 shards' worth (2 pairs x 2 shards)
	if got := c.Stats.BytesSent.Load(); got != wantBytes {
		t.Errorf("H on node qubit moved %d bytes, want %d", got, wantBytes)
	}
	if c.Stats.Exchanges.Load() != 2 {
		t.Errorf("exchanges = %d, want 2", c.Stats.Exchanges.Load())
	}
}

// TestEmulatedQFTMatchesCircuitQFT validates the Figure 3 pair on the
// cluster substrate: distributed four-step FFT vs distributed gate-level
// QFT circuit.
func TestEmulatedQFTMatchesCircuitQFT(t *testing.T) {
	src := rng.New(6)
	for _, p := range []int{1, 2, 4} {
		n := uint(8)
		c, err := cluster.New(n, p)
		if err != nil {
			t.Fatal(err)
		}
		st := loadRandom(t, c, src)

		// Emulated: distributed FFT.
		if err := c.EmulateQFT(); err != nil {
			t.Fatal(err)
		}
		got := c.Gather()

		// Reference: gate-level QFT on one node.
		want := st.Clone()
		qft.Circuit(n).Run(want)

		if d := got.MaxDiff(want); d > 1e-9 {
			t.Fatalf("p=%d: distributed FFT differs from QFT circuit by %g", p, d)
		}
	}
}

func TestEmulatedQFTInverseRoundTrip(t *testing.T) {
	src := rng.New(7)
	c, _ := cluster.New(9, 4)
	st := loadRandom(t, c, src)
	if err := c.EmulateQFT(); err != nil {
		t.Fatal(err)
	}
	applyInverseQFT(t, c)
	if d := c.Gather().MaxDiff(st); d > 1e-9 {
		t.Fatalf("distributed FFT round trip error %g", d)
	}
}

// TestFFTCountsThreeAllToAlls pins Eq. 5's three all-to-alls and where
// they fall: the transform pays two and leaves its output order in the
// placement; the Canonicalize of whatever next reads canonical order pays
// the third.
func TestFFTCountsThreeAllToAlls(t *testing.T) {
	src := rng.New(8)
	c, _ := cluster.New(10, 4)
	loadRandom(t, c, src)
	c.ResetStats()
	if err := c.EmulateQFT(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats.AllToAlls.Load(); got != 2 {
		t.Errorf("distributed FFT used %d all-to-alls, want 2", got)
	}
	c.Canonicalize()
	if got := c.Stats.AllToAlls.Load(); got != 3 {
		t.Errorf("distributed FFT then Canonicalize used %d all-to-alls, want 3 (Eq. 5)", got)
	}
}

func TestQFTCircuitCommunicationScalesAsLogP(t *testing.T) {
	// Eq. 6: simulating the QFT (no-swap variant) on P nodes needs exactly
	// log2(P) exchange phases (one Hadamard per node qubit); diagonal CRs
	// are free with the optimisation on.
	src := rng.New(9)
	for _, p := range []int{2, 4, 8} {
		n := uint(9)
		c, _ := cluster.New(n, p)
		loadRandom(t, c, src)
		c.ResetStats()
		c.Run(qft.CircuitNoSwap(n))
		wantExchanges := uint64(p/2) * uint64(c.NodeBits)
		if got := c.Stats.Exchanges.Load(); got != wantExchanges {
			t.Errorf("p=%d: %d exchanges, want %d (= P/2 pairs x log2 P node Hadamards)",
				p, got, wantExchanges)
		}
	}
}

func TestNormPreservedAcrossCluster(t *testing.T) {
	src := rng.New(10)
	c, _ := cluster.New(8, 8)
	loadRandom(t, c, src)
	c.Run(qft.Circuit(8))
	applyInverseQFT(t, c)
	if d := math.Abs(c.Gather().Norm() - 1); d > 1e-9 {
		t.Errorf("norm drifted by %g", d)
	}
}
