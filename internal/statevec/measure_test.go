package statevec

import (
	"math"
	"sort"
	"testing"

	"repro/internal/gates"
	"repro/internal/rng"
)

func TestProbabilityUniform(t *testing.T) {
	s := New(4)
	for q := uint(0); q < 4; q++ {
		s.ApplyGate(gates.H(q))
	}
	for q := uint(0); q < 4; q++ {
		if p := s.Probability(q); math.Abs(p-0.5) > eps {
			t.Errorf("P(q%d=1) = %v, want 0.5", q, p)
		}
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	src := rng.New(1)
	s := NewRandom(7, src)
	var sum float64
	for _, p := range s.Probabilities() {
		sum += p
	}
	if math.Abs(sum-1) > 1e-10 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

// TestBranchMass: the outcome-1 branch is Probability, the two branches
// partition the mass of an unnormalised state, and only the outcome's low
// bit selects the branch.
func TestBranchMass(t *testing.T) {
	for _, ws := range workerSettings {
		t.Run(ws.name, func(t *testing.T) {
			src := rng.New(912)
			s := NewRandom(engineN, src)
			s.Scale(complex(0.6, -0.3))
			s.SetParallelism(ws.workers)
			mass := s.Mass()
			for q := uint(0); q < engineN; q++ {
				m0, m1 := s.BranchMass(q, 0), s.BranchMass(q, 1)
				if m1 != s.Probability(q) {
					t.Errorf("q%d: BranchMass(1) = %v, Probability = %v", q, m1, s.Probability(q))
				}
				if math.Abs(m0+m1-mass) > 1e-12 {
					t.Errorf("q%d: branches %v + %v, total mass %v", q, m0, m1, mass)
				}
				if got := s.BranchMass(q, 2); got != m0 {
					t.Errorf("q%d: BranchMass(2) = %v, want the outcome-0 mass %v", q, got, m0)
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("BranchMass on an out-of-range qubit did not panic")
					}
				}()
				s.BranchMass(engineN, 0)
			}()
		})
	}
}

// zObservable is the eigenvalue of Z on each listed qubit, multiplied: +1
// when an even number of them read 1, -1 otherwise.
func zObservable(qubits ...uint) func(uint64) float64 {
	return func(i uint64) float64 {
		v := 1.0
		for _, q := range qubits {
			if i>>q&1 == 1 {
				v = -v
			}
		}
		return v
	}
}

func TestExpectationDiagonalZ(t *testing.T) {
	s := New(2)
	if got := s.ExpectationDiagonal(zObservable(0)); math.Abs(got-1) > eps {
		t.Errorf("<Z> on |0> = %v, want 1", got)
	}
	s.ApplyX(0)
	if got := s.ExpectationDiagonal(zObservable(0)); math.Abs(got+1) > eps {
		t.Errorf("<Z> on |1> = %v, want -1", got)
	}
	s.ApplyHadamard(0)
	if got := s.ExpectationDiagonal(zObservable(0)); math.Abs(got) > eps {
		t.Errorf("<Z> on |-> = %v, want 0", got)
	}
	// On any state <Z_q> = 1 - 2 P(q = 1).
	r := NewRandom(6, rng.New(913))
	for q := uint(0); q < 6; q++ {
		got, want := r.ExpectationDiagonal(zObservable(q)), 1-2*r.Probability(q)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("q%d: <Z> = %v, 1 - 2P = %v", q, got, want)
		}
	}
}

// TestExpectationDiagonalGHZCorrelations: on (|0000> + |1111>)/sqrt2 every
// single <Z_i> and odd product vanishes while every even product is 1.
func TestExpectationDiagonalGHZCorrelations(t *testing.T) {
	const n = 4
	s := New(n)
	s.ApplyGate(gates.H(0))
	for q := uint(1); q < n; q++ {
		s.ApplyGate(gates.CNOT(0, q))
	}
	for _, c := range []struct {
		qubits []uint
		want   float64
	}{
		{[]uint{0}, 0}, {[]uint{3}, 0}, {[]uint{0, 1, 2}, 0},
		{[]uint{0, 1}, 1}, {[]uint{1, 3}, 1}, {[]uint{0, 1, 2, 3}, 1},
	} {
		if got := s.ExpectationDiagonal(zObservable(c.qubits...)); math.Abs(got-c.want) > eps {
			t.Errorf("<Z%v> = %v, want %v", c.qubits, got, c.want)
		}
	}
}

// TestSampleBellCorrelations: every draw from a Bell pair reads 00 or 11,
// and both occur.
func TestSampleBellCorrelations(t *testing.T) {
	s := New(2)
	s.ApplyGate(gates.H(0))
	s.ApplyGate(gates.CNOT(0, 1))
	src := rng.New(2024)
	var seen [4]int
	for i := 0; i < 50; i++ {
		seen[s.Sample(src)]++
	}
	for _, x := range s.SampleMany(200, src) {
		seen[x]++
	}
	if seen[1] != 0 || seen[2] != 0 {
		t.Fatalf("Bell samples decorrelated: counts %v", seen)
	}
	if seen[0] == 0 || seen[3] == 0 {
		t.Fatalf("Bell samples missed an outcome: counts %v", seen)
	}
}

// TestResolveCDFFirstExceedingIndex checks ResolveCDF against a linear
// scan: each sorted target selects the first index whose running mass
// exceeds it, and a target at or past the total mass clamps to the last
// supported index (here not Dim-1: the top amplitudes are zero).
func TestResolveCDFFirstExceedingIndex(t *testing.T) {
	for _, ws := range workerSettings {
		t.Run(ws.name, func(t *testing.T) {
			src := rng.New(914)
			s := NewRandom(engineN, src)
			amps := s.Amplitudes()
			last := uint64(len(amps) - 20)
			for i := last + 1; i < uint64(len(amps)); i++ {
				amps[i] = 0
			}
			s.SetParallelism(ws.workers)
			mass := s.Mass()
			ts := make([]float64, 300)
			for i := range ts {
				ts[i] = src.Float64() * mass
			}
			ts = append(ts, 0, mass, 2*mass)
			sort.Float64s(ts)
			out := make([]uint64, len(ts))
			s.ResolveCDF(ts, out)
			for j, target := range ts {
				want := last
				var acc float64
				for i, a := range amps {
					acc += real(a)*real(a) + imag(a)*imag(a)
					if target < acc {
						want = uint64(i)
						break
					}
				}
				if out[j] != want && !(target >= mass*(1-1e-12) && out[j] == last) {
					t.Fatalf("target %v: resolved %d, want %d", target, out[j], want)
				}
			}
		})
	}
}

func TestSampleDistribution(t *testing.T) {
	// State (|0> + |1>)/sqrt2 on one qubit: ~50/50 sampling.
	s := New(1)
	s.ApplyGate(gates.H(0))
	src := rng.New(9)
	ones := 0
	const shots = 20000
	for i := 0; i < shots; i++ {
		ones += int(s.Sample(src))
	}
	frac := float64(ones) / shots
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("sampled fraction %v, want ~0.5", frac)
	}
}

func TestSampleManyMatchesDistribution(t *testing.T) {
	src := rng.New(10)
	s := NewRandom(4, src)
	probs := s.Probabilities()
	const shots = 60000
	counts := make([]int, s.Dim())
	for _, x := range s.SampleMany(shots, src) {
		counts[x]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / shots
		tol := 4*math.Sqrt(p*(1-p)/shots) + 1e-3
		if math.Abs(got-p) > tol {
			t.Errorf("state %d: sampled %v, exact %v (tol %v)", i, got, p, tol)
		}
	}
}

// TestEstimateDiagonalStderrUnbiased pins the standard error on a known
// two-outcome distribution: for 0/1 draws with k ones out of N shots the
// unbiased sample variance is k(N-k)/(N(N-1)) and the stderr its square
// root over sqrt(N). Before the Bessel fix the denominator was N (the
// biased population variance), off by a factor sqrt((N-1)/N).
func TestEstimateDiagonalStderrUnbiased(t *testing.T) {
	s := New(1)
	s.ApplyGate(gates.H(0))
	obs := func(i uint64) float64 { return float64(i) }
	const shots = 1000
	// Re-draw the exact sample EstimateDiagonal will see (same seed).
	var k float64
	for _, d := range s.SampleMany(shots, rng.New(77)) {
		k += float64(d)
	}
	mean, stderr := s.EstimateDiagonal(obs, shots, rng.New(77))
	const n = float64(shots)
	wantMean := k / n
	wantStderr := math.Sqrt(k * (n - k) / (n * (n - 1)) / n)
	if math.Abs(mean-wantMean) > 1e-12 {
		t.Errorf("mean = %v, want %v", mean, wantMean)
	}
	if math.Abs(stderr-wantStderr) > 1e-12 {
		t.Errorf("stderr = %v, want unbiased %v", stderr, wantStderr)
	}
	biased := math.Sqrt(k * (n - k) / (n * n) / n)
	if math.Abs(stderr-biased) < math.Abs(stderr-wantStderr) {
		t.Errorf("stderr %v matches the biased estimator %v", stderr, biased)
	}
}

func TestEstimateDiagonalSingleShot(t *testing.T) {
	s := New(1)
	s.ApplyGate(gates.H(0))
	_, stderr := s.EstimateDiagonal(func(i uint64) float64 { return float64(i) }, 1, rng.New(5))
	if stderr != 0 {
		t.Errorf("single-shot stderr = %v, want 0 (no spread information)", stderr)
	}
}

// TestSampleClampsDenormalizedState is the regression test for the
// Dim()-1 fallthrough bug: when the state's norm drifts marginally below
// 1, a uniform draw landing in the residual gap must clamp to a supported
// outcome instead of returning the (zero-probability) top basis state.
// Checked on both the serial early-exit walk and the chunk-parallel walk.
func TestSampleClampsDenormalizedState(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, gap := range []float64{1e-12, 0.5} {
			s := NewZero(13)
			s.SetAmplitude(5, complex(math.Sqrt(1-gap), 0))
			s.SetParallelism(workers)
			src := rng.New(9001)
			for i := 0; i < 300; i++ {
				if got := s.Sample(src); got != 5 {
					t.Fatalf("workers=%d gap=%g: Sample returned %d, want 5", workers, gap, got)
				}
			}
			for _, x := range s.SampleMany(500, src) {
				if x != 5 {
					t.Fatalf("workers=%d gap=%g: SampleMany returned %d, want 5", workers, gap, x)
				}
			}
		}
	}
}

func TestExactVsSampledExpectation(t *testing.T) {
	// Section 3.4: the exact expectation must agree with the sampled
	// estimate within a few standard errors, while needing no shots.
	src := rng.New(123)
	s := NewRandom(6, src)
	obs := func(i uint64) float64 { return float64(i%5) - 2 }
	exact := s.ExpectationDiagonal(obs)
	mean, stderr := s.EstimateDiagonal(obs, 40000, src)
	if math.Abs(mean-exact) > 5*stderr+1e-3 {
		t.Errorf("sampled %v +- %v vs exact %v", mean, stderr, exact)
	}
}
