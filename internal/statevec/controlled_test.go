package statevec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitops"
	"repro/internal/gates"
	"repro/internal/rng"
)

// The three loops below are the controlled kernels as they were before
// they walked only the control-satisfied groups: every one of the 2^(n-1)
// pairs, each tested against the controls. With no controls they are the
// uncontrolled X, diagonal and 2x2 loops the group walk replaced. They are
// the oracles the kernels are held to, bit for bit.

func ctrlMatrix2Oracle(amp []complex128, m gates.Matrix2, k uint, stride, cmask, start, end uint64) {
	for c := start; c < end; c++ {
		i0 := bitops.InsertZeroBit(c, k)
		if i0&cmask != cmask {
			continue
		}
		i1 := i0 | stride
		a0, a1 := amp[i0], amp[i1]
		amp[i0] = m[0]*a0 + m[1]*a1
		amp[i1] = m[2]*a0 + m[3]*a1
	}
}

func ctrlDiagOracle(amp []complex128, d0, d1 complex128, k uint, stride, cmask uint64, scale0, scale1 bool, start, end uint64) {
	for c := start; c < end; c++ {
		i0 := bitops.InsertZeroBit(c, k)
		if i0&cmask != cmask {
			continue
		}
		if scale0 {
			amp[i0] *= d0
		}
		if scale1 {
			amp[i0|stride] *= d1
		}
	}
}

func ctrlXOracle(amp []complex128, k uint, stride, cmask, start, end uint64) {
	for c := start; c < end; c++ {
		i0 := bitops.InsertZeroBit(c, k)
		if i0&cmask != cmask {
			continue
		}
		i1 := i0 | stride
		amp[i0], amp[i1] = amp[i1], amp[i0]
	}
}

// controlledOracles applies the three oracles for one (target, controls)
// pair to copies of init, in the order x, diag, matrix.
func controlledOracles(init *State, m gates.Matrix2, d0, d1 complex128, k uint, controls []uint) [3]*State {
	half := init.Dim() >> 1
	stride := uint64(1) << k
	cmask := bitops.ControlMask(controls)
	var out [3]*State
	for i := range out {
		out[i] = init.Clone()
	}
	ctrlXOracle(out[0].amp, k, stride, cmask, 0, half)
	ctrlDiagOracle(out[1].amp, d0, d1, k, stride, cmask, d0 != 1, d1 != 1, 0, half)
	ctrlMatrix2Oracle(out[2].amp, m, k, stride, cmask, 0, half)
	return out
}

// checkControlled holds the three controlled kernels on one (target,
// controls) pair to their oracles, bit for bit: through the entry points at
// the given parallelism, and through the chunk functions over the chunk
// plan that parallelism gives the group count, whatever the register size
// — so chunk edges fall on groups at every n, not only where the pool
// engages.
func checkControlled(t *testing.T, init *State, m gates.Matrix2, d0, d1 complex128, k uint, controls []uint, workers int) {
	t.Helper()
	want := controlledOracles(init, m, d0, d1, k, controls)
	what := fmt.Sprintf("n=%d k=%d controls=%v d0=%v workers=%d", init.NumQubits(), k, controls, d0, workers)
	kernels := [3]func(s *State){
		func(s *State) { s.ApplyControlledX(k, controls) },
		func(s *State) { s.ApplyControlledDiag(d0, d1, k, controls) },
		func(s *State) { s.ApplyControlledMatrix2(m, k, controls) },
	}
	cmask := bitops.ControlMask(controls)
	qmask := cmask | 1<<k
	chunks := [3]func(amp []complex128, lo, hi uint64){
		func(amp []complex128, lo, hi uint64) { ctrlXChunk(amp, cmask, qmask, lo, hi) },
		func(amp []complex128, lo, hi uint64) {
			if d0 != 1 || d1 != 1 {
				ctrlDiagChunk(amp, d0, d1, cmask, qmask, lo, hi)
			}
		},
		func(amp []complex128, lo, hi uint64) { ctrlMatrix2Chunk(amp, m, cmask, qmask, lo, hi) },
	}
	names := [3]string{"ApplyControlledX", "ApplyControlledDiag", "ApplyControlledMatrix2"}
	for i, apply := range kernels {
		got := init.Clone()
		got.SetParallelism(workers)
		apply(got)
		if j, ok := sameBits(got, want[i]); !ok {
			t.Fatalf("%s %s: amplitude %d is %v, the oracle's %v", names[i], what, j, got.amp[j], want[i].amp[j])
		}
		got.CopyFrom(init)
		ck := makeChunks(init.Dim()>>bitops.PopCount(qmask), workers)
		for c := 0; c < ck.n; c++ {
			lo, hi := ck.bounds(c)
			chunks[i](got.amp, lo, hi)
		}
		if j, ok := sameBits(got, want[i]); !ok {
			t.Fatalf("%s chunks %s: amplitude %d is %v, the oracle's %v", names[i], what, j, got.amp[j], want[i].amp[j])
		}
	}
}

// controlSets returns control lists for target k in an n-qubit register:
// one, two and three controls below the target, above it and around it
// (at least one on each side), where the register has room, drawn from
// src; and no controls at all.
func controlSets(src *rng.Source, n, k uint) [][]uint {
	var below, above []uint
	for q := uint(0); q < n; q++ {
		if q < k {
			below = append(below, q)
		} else if q > k {
			above = append(above, q)
		}
	}
	pick := func(from []uint, c int) []uint {
		out := make([]uint, 0, c)
		for _, i := range src.Perm(len(from))[:c] {
			out = append(out, from[i])
		}
		return out
	}
	sets := [][]uint{nil}
	for c := 1; c <= 3; c++ {
		if len(below) >= c {
			sets = append(sets, pick(below, c))
		}
		if len(above) >= c {
			sets = append(sets, pick(above, c))
		}
		if c >= 2 && len(below) >= 1 && len(above) >= 1 && len(below)+len(above) >= c {
			around := []uint{below[src.Intn(len(below))], above[src.Intn(len(above))]}
			if c == 3 {
				rest := append(append([]uint{}, below...), above...)
				for _, q := range src.Perm(len(rest)) {
					if rest[q] != around[0] && rest[q] != around[1] {
						around = append(around, rest[q])
						break
					}
				}
			}
			sets = append(sets, around)
		}
	}
	return sets
}

// TestControlledKernelsMatchOracles is the property test of the controlled
// kernels: over n = 1..10 and every target, no controls and control sets
// of one to three qubits below, above and around the target, a controlled
// phase (d0 = 1), a diagonal with d0 != 1 on either side, and one, two and
// three workers, each kernel equals its oracle bit for bit. Registers of
// 13-15 qubits take the entry points through the worker pool.
func TestControlledKernelsMatchOracles(t *testing.T) {
	src := rng.New(31)
	m := gates.Matrix2{src.Complex(), src.Complex(), src.Complex(), src.Complex()}
	diags := [][2]complex128{{1, src.Complex()}, {src.Complex(), src.Complex()}, {src.Complex(), 1}}
	for n := uint(1); n <= 10; n++ {
		init := NewRandom(n, src)
		for k := uint(0); k < n; k++ {
			for _, controls := range controlSets(src, n, k) {
				for _, d := range diags {
					for _, workers := range []int{1, 2, 3} {
						checkControlled(t, init, m, d[0], d[1], k, controls, workers)
					}
				}
			}
		}
	}
	for _, tc := range []struct {
		n, k     uint
		controls []uint
	}{{13, 5, nil}, {13, 12, []uint{0}}, {14, 0, []uint{13}}, {14, 6, []uint{2, 11}}, {15, 3, []uint{14, 0}}, {15, 7, []uint{1, 8, 14}}} {
		init := NewRandom(tc.n, src)
		for _, d := range diags {
			for _, workers := range []int{1, 2, 3} {
				checkControlled(t, init, m, d[0], d[1], tc.k, tc.controls, workers)
			}
		}
	}
}

// FuzzControlledKernels draws the register size, the target and the
// controls from the input: a pair checkTargetControls rejects must panic
// with a statevec message and leave the state alone; an accepted one must
// equal the oracles bit for bit through all three kernels, at one to three
// workers, with the diagonal a controlled phase or not as the seed says.
func FuzzControlledKernels(f *testing.F) {
	f.Add(uint8(4), uint64(1), []byte{1, 0})
	f.Add(uint8(8), uint64(10), []byte{5})          // no controls
	f.Add(uint8(9), uint64(2), []byte{0, 8})        // control above
	f.Add(uint8(9), uint64(3), []byte{8, 0, 3})     // controls below
	f.Add(uint8(10), uint64(4), []byte{4, 1, 9, 6}) // around
	f.Add(uint8(13), uint64(5), []byte{12, 0})      // pooled
	f.Add(uint8(6), uint64(6), []byte{2, 2})        // control is the target
	f.Add(uint8(6), uint64(7), []byte{2, 200})      // control out of range
	f.Add(uint8(6), uint64(8), []byte{7, 1})        // target out of range
	f.Add(uint8(6), uint64(9), []byte{3, 1, 1})     // a repeated control
	f.Fuzz(func(t *testing.T, nRaw uint8, seed uint64, qs []byte) {
		if len(qs) == 0 {
			return
		}
		n := 1 + uint(nRaw)%14
		if len(qs) > 5 {
			qs = qs[:5]
		}
		k := uint(qs[0])
		controls := make([]uint, len(qs)-1)
		valid := k < n
		for j, q := range qs[1:] {
			controls[j] = uint(q)
			if uint(q) >= n || uint(q) == k {
				valid = false
			}
		}
		src := rng.New(seed)
		m := gates.Matrix2{src.Complex(), src.Complex(), src.Complex(), src.Complex()}
		d0, d1 := complex128(1), src.Complex()
		if src.Intn(2) == 0 {
			d0 = src.Complex()
		}
		init := NewRandom(n, src)
		workers := 1 + src.Intn(3)
		if !valid {
			for _, apply := range []func(s *State){
				func(s *State) { s.ApplyControlledX(k, controls) },
				func(s *State) { s.ApplyControlledDiag(d0, d1, k, controls) },
				func(s *State) { s.ApplyControlledMatrix2(m, k, controls) },
			} {
				got := init.Clone()
				var msg any
				func() {
					defer func() { msg = recover() }()
					apply(got)
				}()
				if text, ok := msg.(string); !ok || !strings.HasPrefix(text, "statevec: ") {
					t.Fatalf("n=%d k=%d controls=%v: want a statevec validation panic, got %v", n, k, controls, msg)
				}
				if _, ok := sameBits(got, init); !ok {
					t.Fatalf("n=%d k=%d controls=%v: a rejected gate moved amplitudes", n, k, controls)
				}
			}
			return
		}
		checkControlled(t, init, m, d0, d1, k, controls, workers)
	})
}
