package backend_test

import (
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// prefixWorkload is a circuit whose first gate unit has a product prefix —
// a rotation layer and CNOTs that pair the low half with the high half,
// then a brickwork that joins everything — followed by a recognised QFT,
// so the executable has a unit after the one holding the prefix.
func prefixWorkload(n uint) *circuit.Circuit {
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		c.Append(gates.Ry(q, 0.3+0.4*float64(q)), gates.Rz(q, 1.1-0.2*float64(q)))
	}
	for q := uint(0); q < n/2; q++ {
		c.Append(gates.CNOT(q, q+n/2))
	}
	for q := uint(0); q < n; q++ {
		c.Append(gates.Rx(q, 0.7+0.1*float64(q)))
	}
	for q := uint(0); q+1 < n; q++ {
		c.Append(gates.CZ(q, q+1), gates.Ry(q+1, 0.5))
	}
	return c.Extend(qft.Circuit(n))
}

// TestFreshRegisterMatrix holds every way a register can reach a Run to
// the circuit applied gate by gate from the same start state, at 1e-10
// and draw for draw, on one, two and four nodes: the product prefix fills
// exactly when the register is fresh — after New, Reset, a read of a
// gathered State, or a copy of a fresh register — and otherwise runs its
// gates.
func TestFreshRegisterMatrix(t *testing.T) {
	const n = 8
	c := prefixWorkload(n)
	for _, p := range []int{1, 2, 4} {
		target := backend.Target{NumQubits: n, Kind: backend.Cluster, Nodes: p, FuseWidth: 3, Emulate: recognize.Auto}
		x, err := backend.Compile(c, target)
		if err != nil {
			t.Fatal(err)
		}
		if x.Units[0].Prefix == nil || len(x.Units) < 2 {
			t.Fatalf("P=%d: %d units, prefix %v; the workload needs a prefix and a unit after it", p, len(x.Units), x.Units[0].Prefix)
		}
		open := func(t *testing.T) backend.Backend {
			b, err := backend.New(x.Target)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			return b
		}
		run := func(t *testing.T, b backend.Backend) bool {
			res, err := b.Run(x)
			if err != nil {
				t.Fatal(err)
			}
			return res.Prefix.Filled
		}
		// Each case prepares a backend, runs x and returns whether the
		// fill ran; start is the state the gate-by-gate reference starts
		// from and twice asks it to apply the circuit two times.
		type outcome struct {
			filled bool
			start  func(*statevec.State)
			twice  bool
		}
		kraus := gates.Matrix2{1, 0, 0, 0.6}
		cases := []struct {
			name   string
			filled bool
			do     func(t *testing.T, b backend.Backend) outcome
		}{
			{"after New", true, func(t *testing.T, b backend.Backend) outcome {
				return outcome{filled: run(t, b)}
			}},
			{"after Reset", true, func(t *testing.T, b backend.Backend) outcome {
				run(t, b)
				b.Reset()
				return outcome{filled: run(t, b)}
			}},
			{"twice", false, func(t *testing.T, b backend.Backend) outcome {
				run(t, b)
				return outcome{filled: run(t, b), twice: true}
			}},
			{"after State", p > 1, func(t *testing.T, b backend.Backend) outcome {
				// One node hands out the live shard, and a write through it
				// is a write to the register; several hand out a copy.
				b.State().ApplyGate(gates.H(2))
				if p > 1 {
					return outcome{filled: run(t, b)}
				}
				return outcome{filled: run(t, b), start: func(s *statevec.State) { s.ApplyGate(gates.H(2)) }}
			}},
			{"after ApplyGate", false, func(t *testing.T, b backend.Backend) outcome {
				b.ApplyGate(gates.X(n - 1))
				return outcome{filled: run(t, b), start: func(s *statevec.State) { s.ApplyGate(gates.X(n - 1)) }}
			}},
			{"after ApplyKraus", false, func(t *testing.T, b backend.Backend) outcome {
				// The branch leaves |0...0> as it was, but the register is
				// written and runs the prefix's gates.
				if mass := b.ApplyKraus(kraus, 1); mass != 1 {
					t.Fatalf("Kraus branch mass %g on |0...0>, want 1", mass)
				}
				return outcome{filled: run(t, b)}
			}},
			{"after CopyState from a fresh source", true, func(t *testing.T, b backend.Backend) outcome {
				run(t, b)
				if err := backend.CopyState(b, open(t)); err != nil {
					t.Fatal(err)
				}
				return outcome{filled: run(t, b)}
			}},
			{"after CopyState from a written source", false, func(t *testing.T, b backend.Backend) outcome {
				src := open(t)
				src.ApplyGate(gates.H(n - 1))
				if err := backend.CopyState(b, src); err != nil {
					t.Fatal(err)
				}
				return outcome{filled: run(t, b), start: func(s *statevec.State) { s.ApplyGate(gates.H(n - 1)) }}
			}},
			{"RunUnits(0, 1) then the rest", true, func(t *testing.T, b backend.Backend) outcome {
				if err := b.RunUnits(x, 0, 1); err != nil {
					t.Fatal(err)
				}
				if err := b.RunUnits(x, 1, len(x.Units)); err != nil {
					t.Fatal(err)
				}
				return outcome{filled: true}
			}},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("P=%d/%s", p, tc.name), func(t *testing.T) {
				b := open(t)
				got := tc.do(t, b)
				if got.filled != tc.filled {
					t.Errorf("fill ran: %v, want %v", got.filled, tc.filled)
				}
				ref := statevec.New(n)
				if got.start != nil {
					got.start(ref)
				}
				c.Run(ref)
				if got.twice {
					c.Run(ref)
				}
				if d := b.State().MaxDiff(ref); d > 1e-10 {
					t.Fatalf("differs from the gate-by-gate state by %g", d)
				}
				const draws = 64
				want := ref.SampleMany(draws, rng.New(uint64(p)))
				for i, s := range b.SampleMany(draws, rng.New(uint64(p))) {
					if s != want[i] {
						t.Fatalf("draw %d is |%d>, gate by gate |%d>", i, s, want[i])
					}
				}
			})
		}
	}
}
