// Shor: period finding for integer factoring — the paper's flagship use
// case for emulation (Section 3, "the most famous application"). The
// modular exponentiation |x>|1> -> |x>|a^x mod N>, which a simulator would
// have to run as an enormous reversible circuit, is emulated as a single
// classical permutation on the backend's state; the inverse QFT on the
// counting register runs as a circuit compiled for the profile-driven auto
// target, which chooses to lower it to the FFT (repro.OpenFor opens the
// backend of the chosen shape); the final readout uses the exact
// distribution plus continued fractions.
package main

import (
	"fmt"

	"repro"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/rng"
)

func main() {
	for _, target := range []struct{ n, a uint64 }{{15, 7}, {21, 2}} {
		factorOnce(target.n, target.a)
		fmt.Println()
	}
}

func factorOnce(N, a uint64) {
	fmt.Printf("factoring N = %d with base a = %d\n", N, a)
	// Register sizes: work register holds values mod N; counting register
	// gets 2*w bits for the standard success guarantee.
	w := uint(0)
	for (uint64(1) << w) < N {
		w++
	}
	t := 2 * w
	total := t + w
	fmt.Printf("  %d counting qubits + %d work qubits = %d total\n", t, w, total)

	// Inverse QFT on the counting register: the gate-level circuit carries
	// an "iqft" region. Compiled for the auto target, Compile profiles it,
	// prices every engine and picks the shape itself — here a fused engine
	// with the Fourier region dispatched to the FFT, the same choice an
	// explicit Emulate: EmulateAnnotated target would make — and the state is
	// prepared on the backend opened for that shape.
	iqft := repro.NewCircuit(total)
	iqft.Extend(qft.Circuit(t).Dagger())
	x, err := repro.Compile(iqft, repro.Target{NumQubits: total, Auto: true})
	if err != nil {
		panic(err)
	}
	b, err := repro.OpenFor(x)
	if err != nil {
		panic(err)
	}
	// Counting register in uniform superposition; work register = |1>.
	for q := uint(0); q < t; q++ {
		b.ApplyGate(gates.H(q))
	}
	b.ApplyGate(gates.X(t))

	// Emulated modular exponentiation: for each basis state, w -> w * a^x
	// mod N (a bijection on [0, N) for gcd(a, N) = 1; identity above N).
	powMod := precomputePowers(a, N, t)
	wMask := (uint64(1) << w) - 1
	b.State().ApplyPermutation(func(i uint64) uint64 {
		x := i & ((1 << t) - 1)
		wv := (i >> t) & wMask
		if wv >= N {
			return i
		}
		nv := (wv * powMod[x]) % N
		return (i &^ (wMask << t)) | nv<<t
	})

	// The compiled inverse QFT runs on the prepared state.
	res, err := b.Run(x)
	if err != nil {
		panic(err)
	}
	for _, r := range res.Emulated {
		fmt.Printf("  %v\n", r)
	}

	// Read the exact counting-register distribution and extract the period
	// via continued fractions — then sample like hardware would.
	probs := b.State().Probabilities()
	counting := make([]float64, uint64(1)<<t)
	for i, p := range probs {
		counting[uint64(i)&((1<<t)-1)] += p
	}
	r := uint64(0)
	src := rng.New(11)
	for attempt := 0; attempt < 20; attempt++ {
		y := sampleFrom(counting, src)
		if y == 0 {
			continue
		}
		cand := denominatorOf(y, uint64(1)<<t, N)
		if cand != 0 && powWithMod(a, cand, N) == 1 {
			r = cand
			break
		}
	}
	if r == 0 {
		fmt.Println("  period not found (retry with another base)")
		return
	}
	fmt.Printf("  measured period r = %d\n", r)
	if r%2 == 1 {
		fmt.Println("  odd period; retry with another base")
		return
	}
	half := powWithMod(a, r/2, N)
	f1 := gcd(half+1, N)
	f2 := gcd(half-1+N, N)
	fmt.Printf("  gcd(a^(r/2) ± 1, N) -> factors %d x %d", f1, f2)
	if f1*f2 == N && f1 != 1 && f2 != 1 {
		fmt.Printf("  ✓\n")
	} else {
		fmt.Printf("  (trivial; rerun with another base)\n")
	}
}

// precomputePowers tabulates a^x mod N for all x < 2^t via iterated
// doubling so the permutation callback stays O(1).
func precomputePowers(a, N uint64, t uint) []uint64 {
	size := uint64(1) << t
	out := make([]uint64, size)
	out[0] = 1 % N
	for x := uint64(1); x < size; x++ {
		out[x] = (out[x-1] * a) % N
	}
	return out
}

func powWithMod(a, e, N uint64) uint64 {
	r := uint64(1 % N)
	base := a % N
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = r * base % N
		}
		base = base * base % N
	}
	return r
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// denominatorOf runs the continued-fraction expansion of y/Q and returns
// the largest denominator < N (the period candidate).
func denominatorOf(y, Q, N uint64) uint64 {
	// Convergents of y/Q: denominators follow k_i = a_i k_{i-1} + k_{i-2}
	// with k_{-2} = 1, k_{-1} = 0.
	num, den := y, Q
	var h0, h1 uint64 = 1, 0
	best := uint64(0)
	for den != 0 {
		q := num / den
		num, den = den, num%den
		h0, h1 = h1, q*h1+h0
		if h1 < N {
			best = h1
		} else {
			break
		}
	}
	return best
}

func sampleFrom(dist []float64, src *rng.Source) uint64 {
	r := src.Float64()
	acc := 0.0
	for i, p := range dist {
		acc += p
		if r < acc {
			return uint64(i)
		}
	}
	return uint64(len(dist) - 1)
}
