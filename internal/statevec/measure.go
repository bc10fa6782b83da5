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

// massChunks computes the per-chunk probability masses of the amplitude
// vector under the State's chunk plan — the parallel prefix-sum skeleton
// the inverse-CDF samplers walk — and their total.
func (s *State) massChunks() (chunks, []float64, float64) {
	ck := s.chunksFor(s.Dim())
	masses := make([]float64, ck.n)
	par.For(ck.n, func(i int) {
		lo, hi := ck.bounds(i)
		var acc float64
		for _, a := range s.amp[lo:hi] {
			acc += real(a)*real(a) + imag(a)*imag(a)
		}
		masses[i] = acc
	})
	var total float64
	for _, m := range masses {
		total += m
	}
	return ck, masses, total
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
// SampleMany(1, src)[0] — one uniform, no shuffle variate — and the
// serial path resolves its uniform in place, allocation-free.
func (s *State) Sample(src *rng.Source) uint64 {
	if s.parallelism(s.Dim()) > 1 {
		return s.SampleMany(1, src)[0]
	}
	ts, out := [1]float64{src.Float64()}, [1]uint64{}
	s.sampleManySerial(ts[:], out[:])
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

// sampleManySerial resolves the sorted uniforms rs in one early-exit pass.
func (s *State) sampleManySerial(rs []float64, out []uint64) {
	k := len(rs)
	var acc float64
	last := uint64(0)
	haveLast := false
	idx := 0
	for i, a := range s.amp {
		p := real(a)*real(a) + imag(a)*imag(a)
		acc += p
		if p > 0 {
			last = uint64(i)
			haveLast = true
		}
		for idx < k && rs[idx] < acc {
			out[idx] = uint64(i)
			idx++
		}
		if idx == k {
			return
		}
	}
	if !haveLast {
		panic("statevec: sampling from the zero vector")
	}
	for ; idx < k; idx++ {
		out[idx] = last
	}
}

// unresolved marks a draw no chunk resolved (pure rounding fallthrough).
const unresolved = ^uint64(0)

// ResolveCDF resolves sorted ascending cumulative-mass targets ts against
// the amplitude-weight CDF, writing the matched basis indices to out
// (len(out) must equal len(ts)). A target t selects the first index whose
// running mass sum exceeds t; targets at or beyond the total mass clamp to
// the highest supported outcome (float-drift tolerance). A one-node
// cluster (internal/cluster) samples through it.
func (s *State) ResolveCDF(ts []float64, out []uint64) {
	if len(ts) == 0 {
		return
	}
	if s.parallelism(s.Dim()) <= 1 {
		s.sampleManySerial(ts, out)
		return
	}
	s.sampleManyChunked(ts, out)
}

// sampleManyChunked resolves the sorted cumulative targets with the
// parallel prefix-sum walk: per-chunk masses form a prefix sum, the
// targets are partitioned by it, and each chunk's slice is resolved
// concurrently.
func (s *State) sampleManyChunked(ts []float64, out []uint64) {
	ck, masses, total := s.massChunks()
	if total == 0 {
		panic("statevec: sampling from the zero vector")
	}
	prefix := make([]float64, ck.n+1)
	for i, m := range masses {
		prefix[i+1] = prefix[i] + m
	}
	for i := range out {
		out[i] = unresolved
	}
	par.For(ck.n, func(i int) {
		lo, hi := ck.bounds(i)
		jlo := sort.SearchFloat64s(ts, prefix[i])
		jhi := sort.SearchFloat64s(ts, prefix[i+1])
		if jlo == jhi {
			return
		}
		local := prefix[i]
		idx := jlo
		last := uint64(0)
		haveLast := false
		for j := lo; j < hi && idx < jhi; j++ {
			a := s.amp[j]
			p := real(a)*real(a) + imag(a)*imag(a)
			local += p
			if p > 0 {
				last = j
				haveLast = true
			}
			for idx < jhi && ts[idx] < local {
				out[idx] = j
				idx++
			}
		}
		if haveLast {
			for ; idx < jhi; idx++ {
				out[idx] = last
			}
		}
	})
	for i, v := range out {
		if v == unresolved {
			out[i] = s.lastNonzero()
		}
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
