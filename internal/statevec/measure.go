package statevec

import (
	"math"
	"sort"

	"repro/internal/bitops"
	"repro/internal/par"
	"repro/internal/rng"
)

// checkQubit panics when measurement qubit k is out of range, with the
// same message the measurement paths have always raised.
func (s *State) checkQubit(k uint) {
	if k >= s.n {
		panic("statevec: qubit out of range")
	}
}

// conditionalMass returns the probability mass of the branch where qubit k
// reads the given outcome bit, reduced in parallel over the 2^(n-1)
// amplitudes of that branch.
func (s *State) conditionalMass(k uint, outcome uint64) float64 {
	stride := uint64(1) << k
	sel := uint64(0)
	if outcome == 1 {
		sel = stride
	}
	half := s.Dim() >> 1
	if s.parallelism(half) <= 1 {
		return massChunk(s.amp, k, sel, 0, half)
	}
	return parallelReduce(s, half, func(start, end uint64) float64 {
		return massChunk(s.amp, k, sel, start, end)
	}, addFloat)
}

// massChunk sums |amp|² over the branch indices [start, end) of qubit k
// with the selected bit pattern. The serial caller reaches it without
// building a closure.
func massChunk(amp []complex128, k uint, sel, start, end uint64) float64 {
	var acc float64
	for c := start; c < end; c++ {
		a := amp[bitops.InsertZeroBit(c, k)|sel]
		acc += real(a)*real(a) + imag(a)*imag(a)
	}
	return acc
}

// Probability returns the probability that measuring qubit k yields 1.
func (s *State) Probability(k uint) float64 {
	s.checkQubit(k)
	return s.conditionalMass(k, 1)
}

// BranchMass returns the probability mass of the branch where qubit k
// reads the given outcome bit, as one half-vector reduction. Unlike
// 1 - Probability(k), the outcome-0 branch is summed directly, so shard
// owners get a non-negative mass in a single pass.
func (s *State) BranchMass(k uint, outcome uint64) float64 {
	s.checkQubit(k)
	return s.conditionalMass(k, outcome&1)
}

// Probabilities returns |amp_i|^2 for every basis state — the complete
// measurement distribution the paper's Section 3.4 says an emulator can
// hand out in one shot, removing the need for repeated sampling.
func (s *State) Probabilities() []float64 {
	p := make([]float64, s.Dim())
	s.parallelRange(s.Dim(), func(start, end uint64) {
		for i := start; i < end; i++ {
			a := s.amp[i]
			p[i] = real(a)*real(a) + imag(a)*imag(a)
		}
	})
	return p
}

// lastNonzero returns the highest basis index with nonzero probability. It
// panics on the zero vector.
func (s *State) lastNonzero() uint64 {
	for i := s.Dim(); i > 0; i-- {
		if s.amp[i-1] != 0 {
			return i - 1
		}
	}
	panic("statevec: sampling from the zero vector")
}

// Sample draws one full-register measurement outcome without collapsing
// the state, via inverse-CDF sampling over the amplitude weights. This is
// what a real quantum computer returns per run: n bits. It is
// SampleMany(1, src)[0] — one uniform, no shuffle variate — and on a
// one-chunk plan it walks the CDF in place, allocation-free.
func (s *State) Sample(src *rng.Source) uint64 {
	if s.chunksFor(s.Dim()).n > 1 {
		return s.SampleMany(1, src)[0]
	}
	ts, out := [1]float64{src.Float64()}, [1]uint64{unresolved}
	walkCDF(s.amp, 0, 0, ts[:], out[:])
	s.clampUnresolved(out[:])
	return out[0]
}

// SampleMany draws k independent outcomes by sorting uniforms against the
// cumulative distribution, costing O(2^n + k log k) instead of O(k 2^n).
// The CDF walk is chunk-parallel via ResolveCDF: per-chunk masses form a
// prefix sum, each worker then resolves the uniforms that land in its
// chunk. It tolerates float drift in the state's norm: each uniform is
// compared against the actually accumulated mass, so an almost-but-not-
// quite normalised state never spuriously returns Dim()-1 — a
// fallthrough draw lands on the highest supported outcome instead. The
// distributed sampler of internal/cluster shares these semantics.
func (s *State) SampleMany(k int, src *rng.Source) []uint64 {
	return SampleSorted(k, src, s.ResolveCDF)
}

// SampleSorted is the draw order every sampler shares: k uniforms from
// src, sorted, resolved against a cumulative distribution by resolve (the
// ResolveCDF contract, which may consume rs), and the outcomes restored to
// random order with src. Two samplers of one distribution therefore give
// the same draws from the same stream; internal/cluster resolves against
// its shards.
func SampleSorted(k int, src *rng.Source, resolve func(rs []float64, out []uint64)) []uint64 {
	rs := make([]float64, k)
	for i := range rs {
		rs[i] = src.Float64()
	}
	sort.Float64s(rs)
	out := make([]uint64, k)
	resolve(rs, out)
	// Restore random order so callers see i.i.d. draws.
	for i := k - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// unresolved marks a draw no walk resolved (pure rounding fallthrough).
const unresolved = ^uint64(0)

// ResolveCDF resolves sorted ascending cumulative-mass targets ts against
// the amplitude-weight CDF, writing the matched basis indices to out
// (len(out) must equal len(ts)). A target t selects the first index whose
// running mass sum exceeds t; targets at or beyond the total mass clamp to
// the highest supported outcome (float-drift tolerance). A one-node
// cluster (internal/cluster) samples through it.
//
// The State's chunk plan decides how: one chunk is one walk from mass 0;
// more are the parallel prefix-sum walk — per-chunk masses form a prefix
// sum, the targets are partitioned by it, and each chunk walks its own
// targets from its prefix, concurrently.
func (s *State) ResolveCDF(ts []float64, out []uint64) {
	if len(ts) == 0 {
		return
	}
	for i := range out {
		out[i] = unresolved
	}
	ck := s.chunksFor(s.Dim())
	if ck.n <= 1 {
		walkCDF(s.amp, 0, 0, ts, out)
		s.clampUnresolved(out)
		return
	}
	prefix := make([]float64, ck.n+1)
	par.For(ck.n, func(i int) {
		lo, hi := ck.bounds(i)
		var acc float64
		for _, a := range s.amp[lo:hi] {
			acc += real(a)*real(a) + imag(a)*imag(a)
		}
		prefix[i+1] = acc
	})
	for i := range ck.n {
		prefix[i+1] += prefix[i]
	}
	par.For(ck.n, func(i int) {
		lo, hi := ck.bounds(i)
		jlo := sort.SearchFloat64s(ts, prefix[i])
		jhi := sort.SearchFloat64s(ts, prefix[i+1])
		walkCDF(s.amp[lo:hi], lo, prefix[i], ts[jlo:jhi], out[jlo:jhi])
	})
	s.clampUnresolved(out)
}

// walkCDF resolves the sorted targets ts against amp, whose first
// amplitude is basis state base, with the running mass starting at acc:
// out[i] is the first index at which the mass exceeds ts[i]. It stops once
// every target is resolved. Targets the mass never exceeds take the last
// supported index the walk saw; if it saw none, they stay as they were.
//
//qemu:hotpath
func walkCDF(amp []complex128, base uint64, acc float64, ts []float64, out []uint64) {
	idx := 0
	last, haveLast := uint64(0), false
	for j, a := range amp {
		if idx == len(ts) {
			return
		}
		p := real(a)*real(a) + imag(a)*imag(a)
		acc += p
		if p > 0 {
			last, haveLast = base+uint64(j), true
		}
		for idx < len(ts) && ts[idx] < acc {
			out[idx] = base + uint64(j)
			idx++
		}
	}
	if haveLast {
		for ; idx < len(ts); idx++ {
			out[idx] = last
		}
	}
}

// clampUnresolved gives every draw no walk resolved the highest supported
// outcome. It panics on the zero vector, where nothing resolves.
func (s *State) clampUnresolved(out []uint64) {
	last, found := uint64(0), false
	for i, v := range out {
		if v != unresolved {
			continue
		}
		if !found {
			last, found = s.lastNonzero(), true
		}
		out[i] = last
	}
}

// ExpectationDiagonal returns the exact expectation of a diagonal
// observable with eigenvalue obs(i) on basis state i. Section 3.4's point:
// the emulator evaluates this in one pass over the state, where hardware
// needs many repetitions for statistical accuracy. The pass is a parallel
// reduction; obs is only evaluated on supported basis states and must be
// safe to call from multiple goroutines.
func (s *State) ExpectationDiagonal(obs func(uint64) float64) float64 {
	return parallelReduce(s, s.Dim(), func(start, end uint64) float64 {
		var acc float64
		for i := start; i < end; i++ {
			a := s.amp[i]
			p := real(a)*real(a) + imag(a)*imag(a)
			if p != 0 {
				acc += p * obs(i)
			}
		}
		return acc
	}, addFloat)
}

// EstimateDiagonal estimates the same expectation the way hardware must:
// by drawing shots samples and averaging, returning the estimate and its
// standard error. The Section 3.4 ablation compares it to the exact path.
// The standard error uses the unbiased sample variance (Bessel's
// correction, shots-1 in the denominator); with a single shot it is
// reported as 0, as no spread information exists.
func (s *State) EstimateDiagonal(obs func(uint64) float64, shots int, src *rng.Source) (mean, stderr float64) {
	if shots <= 0 {
		panic("statevec: shots must be positive")
	}
	var sum, sumSq float64
	for _, x := range s.SampleMany(shots, src) {
		v := obs(x)
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(shots)
	if shots > 1 {
		variance := (sumSq - float64(shots)*mean*mean) / float64(shots-1)
		if variance < 0 {
			variance = 0
		}
		stderr = math.Sqrt(variance / float64(shots))
	}
	return mean, stderr
}
