package statevec

import (
	"math/cmplx"
	"testing"

	"repro/internal/gates"
	"repro/internal/rng"
)

// randomCluster returns a random state of len(qs) qubits, made by gates
// so it is normalised, and the same gates on the register's qubits qs.
func randomCluster(src *rng.Source, qs []uint) ([]complex128, []gates.Gate) {
	local := New(uint(len(qs)))
	local.SetParallelism(1)
	var gs []gates.Gate
	for l := 0; l < 3; l++ {
		for t := range qs {
			a, b := 0.3+2*src.Float64(), 0.3+2*src.Float64()
			local.ApplyGate(gates.Ry(uint(t), a))
			local.ApplyGate(gates.Rz(uint(t), b))
			gs = append(gs, gates.Ry(qs[t], a), gates.Rz(qs[t], b))
		}
		for t := 1; t < len(qs); t++ {
			local.ApplyGate(gates.CNOT(uint(t-1), uint(t)))
			gs = append(gs, gates.CNOT(qs[t-1], qs[t]))
		}
	}
	return local.Amplitudes(), gs
}

// TestFillProductMatchesGates holds the fill to the state its clusters'
// gates make from |0...0>, on one state and on shards, at every share
// count, over clusters inside rows — several of them, which merge into
// one factor, beside clusters that do not — across the row boundary and
// wholly above it, with qubits left out; and the product's Sum to the
// sum of that state's amplitudes.
func TestFillProductMatchesGates(t *testing.T) {
	src := rng.New(7)
	for _, tc := range []struct {
		name     string
		n, shard uint
		clusters [][]uint
	}{
		{"in-row", 12, 12, [][]uint{{0, 1, 2}, {5, 9}}},
		{"straddling", 14, 14, [][]uint{{0, 11, 13}, {1, 2, 10}, {3, 12}}},
		{"above rows", 13, 13, [][]uint{{10, 12}, {4}}},
		{"qubits left out", 13, 13, [][]uint{{2, 11}}},
		{"every qubit", 12, 12, [][]uint{{0, 6}, {1, 7}, {2, 8}, {3, 9}, {4, 10}, {5, 11}}},
		{"shards", 13, 11, [][]uint{{0, 12}, {1, 10, 11}, {5}}},
		{"shards left out", 13, 11, [][]uint{{0, 11}, {3}}},
		{"narrow shards", 8, 6, [][]uint{{0, 7}, {2, 3, 6}}},
		{"one-qubit layer", 13, 11, [][]uint{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}, {11}, {12}}},
		{"merged beside straddling", 14, 14, [][]uint{{0}, {1, 4}, {2, 11}, {3}, {5, 6, 9}, {7, 12}, {8}, {10, 13}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := New(tc.n)
			var amps [][]complex128
			for _, qs := range tc.clusters {
				a, gs := randomCluster(src, qs)
				amps = append(amps, a)
				for _, g := range gs {
					want.ApplyGate(g)
				}
			}
			p := NewProduct(tc.n, tc.shard, tc.clusters, amps)
			var sum complex128
			for _, a := range want.Amplitudes() {
				sum += a
			}
			if d := cmplx.Abs(p.Sum() - sum); d > 1e-12 {
				t.Errorf("Sum is %v, the state's amplitudes sum to %v", p.Sum(), sum)
			}
			for _, parts := range []int{1, 2, 3} {
				got := NewZero(tc.n)
				nodes := 1 << (tc.n - tc.shard)
				for node := 0; node < nodes; node++ {
					shard := New(tc.shard)
					if node > 0 {
						shard.SetAmplitude(0, 0)
					}
					for part := 0; part < parts; part++ {
						shard.FillProduct(p, uint64(node), part, parts)
					}
					copy(got.Amplitudes()[node<<tc.shard:], shard.Amplitudes())
				}
				if d := got.MaxDiff(want); d > 1e-12 {
					t.Errorf("%d shares: fill differs from the gates by %.3g", parts, d)
				}
			}
		})
	}
}

// TestFillProductWritesOnlyItsSupport checks that the fill leaves every
// amplitude outside the product's support as it found it: the fresh
// register's zeros are what make the skipped rows correct.
func TestFillProductWritesOnlyItsSupport(t *testing.T) {
	p := NewProduct(12, 12, [][]uint{{1, 11}}, [][]complex128{{0.5, 0.5, 0.5, 0.5}})
	s := New(12)
	sentinel := complex(7, 7)
	for i := range s.amp {
		if i&^(1<<1|1<<11) != 0 {
			s.amp[i] = sentinel
		}
	}
	s.FillProduct(p, 0, 0, 1)
	for i, a := range s.amp {
		inSupport := i&^(1<<1|1<<11) == 0
		if inSupport && a != 0.5 || !inSupport && a != sentinel {
			t.Fatalf("amplitude %d reads %v", i, a)
		}
	}
	if got, want := p.Qubits(), uint(2); got != want {
		t.Errorf("Qubits %d, want %d", got, want)
	}
}
