package recognize

import (
	"cmp"
	"math"
	"math/cmplx"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/statevec"
)

// diagOp is a diagonal run on qubits (ascending) with table d, as the
// matchers and the decoder build one.
func diagOp(qubits []uint, d []complex128) *Op {
	return &Op{kind: opDiag, qubits: qubits, diag: d, Lo: 3, Hi: 11}
}

// randomPhases returns 2^k random unit-modulus entries.
func randomPhases(src *rng.Source, k int) []complex128 {
	t := make([]complex128, 1<<k)
	for i := range t {
		t[i] = cmplx.Rect(1, 2*math.Pi*src.Float64())
	}
	return t
}

// blockProduct draws a support of k qubits out of n, splits it into
// random blocks and returns the support, the blocks (each ascending,
// ordered by lowest qubit) and the table of a product of random diagonals
// on them — random phases per entry, so the qubits of a block interact.
func blockProduct(src *rng.Source, n, k int) ([]uint, [][]uint, []complex128) {
	support := make([]uint, 0, k)
	for _, q := range src.Perm(n)[:k] {
		support = append(support, uint(q))
	}
	slices.Sort(support)
	nb := 1 + src.Intn(k)
	blockOf := map[uint]int{}
	var blocks [][]uint
	for i, j := range src.Perm(k) { // a shuffled assignment, every block non-empty
		b := i
		if i >= nb {
			b = src.Intn(nb)
		}
		blockOf[support[j]] = b
	}
	for b := range nb {
		var qs []uint
		for _, q := range support {
			if blockOf[q] == b {
				qs = append(qs, q)
			}
		}
		blocks = append(blocks, qs)
	}
	slices.SortFunc(blocks, func(a, b []uint) int { return cmp.Compare(a[0], b[0]) })
	tables := make([][]complex128, nb)
	for b := range blocks {
		tables[b] = randomPhases(src, len(blocks[b]))
	}
	d := make([]complex128, 1<<k)
	for x := range d {
		v := complex(1, 0)
		for b, qs := range blocks {
			var y int
			for t, q := range qs {
				y |= int(x>>slices.Index(support, q)&1) << t
			}
			v *= tables[b][y]
		}
		d[x] = v
	}
	return support, blocks, d
}

// rebuildError reports the largest distance between op's table and the
// product of fs's tables, each read at its own qubits.
func rebuildError(op *Op, fs []*Op) float64 {
	var worst float64
	for x, want := range op.diag {
		full := scatter(0, op.qubits, uint64(x))
		got := complex(1, 0)
		for _, f := range fs {
			got *= f.diag[gather(full, f.qubits)]
		}
		worst = max(worst, cmplx.Abs(got-want))
	}
	return worst
}

// TestFactorsRecoverBlocks builds products of random diagonals on random
// blocks of shuffled supports: Factors recovers exactly the blocks, ordered
// by lowest qubit, each factor a diagonal on its block with the op's range
// and flags, FactorSupports proposes the same masks, and the factors'
// product rebuilds every table entry at 1e-12.
func TestFactorsRecoverBlocks(t *testing.T) {
	src := rng.New(45)
	splits := 0
	for trial := range 300 {
		support, blocks, d := blockProduct(src, 14, 1+src.Intn(10))
		op := diagOp(support, d)
		op.Annotated, op.Verified = trial%2 == 0, trial%3 == 0
		fs := op.Factors()
		if len(blocks) == 1 {
			if len(fs) != 1 || fs[0] != op || op.FactorSupports() != nil {
				t.Fatalf("trial %d: one block on %v split into %d factors", trial, support, len(fs))
			}
			continue
		}
		splits++
		if len(fs) != len(blocks) {
			t.Fatalf("trial %d: blocks %v came back as %d factors", trial, blocks, len(fs))
		}
		masks := op.FactorSupports()
		for b, f := range fs {
			if f.kind != opDiag || !slices.Equal(f.qubits, blocks[b]) || f.Lo != op.Lo || f.Hi != op.Hi ||
				f.Annotated != op.Annotated || f.Verified != op.Verified {
				t.Fatalf("trial %d: factor %d is %v on %v, want a diagonal on block %v like %v", trial, b, f, f.qubits, blocks[b], op)
			}
			var m uint64
			for _, q := range blocks[b] {
				m |= 1 << q
			}
			if masks[b] != m {
				t.Fatalf("trial %d: proposed support %d is %#x, want %#x", trial, b, masks[b], m)
			}
		}
		if e := rebuildError(op, fs); e > 1e-12 {
			t.Fatalf("trial %d: the factors rebuild the table to %g", trial, e)
		}
	}
	if splits < 200 {
		t.Fatalf("only %d of 300 trials drew more than one block", splits)
	}
}

// TestFactorsStayWhole holds Factors to what it can prove: a CCZ-type
// table, whose interaction shows only at |111> and so at no pair of the
// base-point test, beside a phase on a fourth qubit; and a table that
// splits, perturbed by 1e-9 at its last entry, which the pairwise test
// does not read. Both are proposed as splits, and both stay whole. So does
// every op that is not a diagonal run.
func TestFactorsStayWhole(t *testing.T) {
	ccz := make([]complex128, 16)
	for x := range ccz {
		ccz[x] = 1
		if x&7 == 7 {
			ccz[x] = -1
		}
		if x&8 != 0 {
			ccz[x] *= cmplx.Rect(1, 0.4)
		}
	}
	var d []complex128
	for seed := uint64(7); len(diagOp([]uint{0, 1, 2, 3, 4, 5}, d).FactorSupports()) < 2; seed++ {
		_, _, d = blockProduct(rng.New(seed), 10, 6)
	}
	d[len(d)-1] *= complex(1+1e-9, 0)
	flip := &Op{kind: opPhaseFlip, qubits: []uint{1, 4}, value: 2}
	for _, tc := range []struct {
		name string
		op   *Op
	}{
		{"ccz", diagOp([]uint{1, 3, 4, 8}, ccz)},
		{"perturbed product", diagOp([]uint{0, 1, 2, 3, 4, 5}, d)},
		{"phase flip", flip},
	} {
		if fs := tc.op.Factors(); len(fs) != 1 || fs[0] != tc.op {
			t.Errorf("%s: split into %d factors, want the op whole", tc.name, len(fs))
		}
		if want := tc.op.kind == opDiag; (tc.op.FactorSupports() != nil) != want {
			t.Errorf("%s: proposed %v; a split proposed: %v", tc.name, tc.op.FactorSupports(), want)
		}
	}
}

// TestFactorsApplyOnClusters applies each factor with ApplyOn on a
// cluster — its block and one qubit outside the support — and holds the
// product of the clusters' vectors to op.Apply on the full register over
// the same product state, at 1e-12.
func TestFactorsApplyOnClusters(t *testing.T) {
	const n = 12
	src := rng.New(11)
	for trial := range 40 {
		support, blocks, d := blockProduct(src, n-4, 2+src.Intn(6))
		if len(blocks) < 2 || len(blocks) > 4 {
			continue
		}
		op := diagOp(support, d)
		fs := op.Factors()
		// Cluster b is block b and qubit n-4+b, outside every support.
		clusters := make([][]uint, len(fs))
		vecs := make([]*statevec.State, len(fs))
		for b, f := range fs {
			clusters[b] = append(slices.Clone(f.qubits), uint(n-4+b))
			vecs[b] = randomState(src, uint(len(clusters[b])))
		}
		full := productState(n, clusters, vecs)
		op.Apply(full)
		for b, f := range fs {
			f.ApplyOn(vecs[b], clusters[b])
		}
		if diff := full.MaxDiff(productState(n, clusters, vecs)); diff > 1e-12 {
			t.Fatalf("trial %d: op.Apply and the factors on their clusters differ by %g", trial, diff)
		}
	}
}

// productState is the n-qubit product of the clusters' vectors, qubit
// clusters[b][t] as bit t of vecs[b], with every qubit in no cluster |0>.
func productState(n uint, clusters [][]uint, vecs []*statevec.State) *statevec.State {
	st := statevec.NewZero(n)
	st.SetParallelism(1)
	var covered uint64
	for _, qs := range clusters {
		for _, q := range qs {
			covered |= 1 << q
		}
	}
	amps := st.Amplitudes()
	for x := range amps {
		if uint64(x)&^covered != 0 {
			continue
		}
		amps[x] = 1
		for b, qs := range clusters {
			amps[x] *= vecs[b].Amplitudes()[gather(uint64(x), qs)]
		}
	}
	return st
}

// randomState is a normalised random state on n qubits.
func randomState(src *rng.Source, n uint) *statevec.State {
	st := statevec.NewZero(n)
	st.SetParallelism(1)
	amps := st.Amplitudes()
	var norm float64
	for i := range amps {
		amps[i] = src.Complex()
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	for i := range amps {
		amps[i] /= complex(math.Sqrt(norm), 0)
	}
	return st
}
