package main

import (
	"sort"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// openReference is the independent oracle every state check uses: c run
// gate by gate through the Generic (structure-blind dense 2x2) kernel
// with emulation off, on a fresh backend. The caller closes it. It shares
// the parser and the amplitude storage with the program under test and
// nothing else — no recognition, no fusion, no specialised kernels, no
// emulation shortcuts, no cluster.
func openReference(c *circuit.Circuit, workers int) (backend.Backend, error) {
	t := backend.Target{NumQubits: c.NumQubits, Kind: backend.Generic, Workers: workers}
	x, err := backend.Compile(c, t)
	if err != nil {
		return nil, err
	}
	b, err := backend.New(t)
	if err != nil {
		return nil, err
	}
	if _, err := b.Run(x); err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

// cdfTable is the benchmark's own sampler over a state: serial prefix
// sums of the amplitude weights, searched per draw. It implements the
// contract every backend's SampleMany documents — k uniforms from the
// stream, sorted, each selecting the first index whose running mass
// exceeds it (clamped to the last supported outcome), then returned to
// random order with the stream's Fisher-Yates draws — without a sweep
// over the state per request.
type cdfTable struct {
	cum  []float64
	last uint64 // highest index with non-zero weight
}

func newCDFTable(st *statevec.State) *cdfTable {
	amps := st.Amplitudes()
	t := &cdfTable{cum: make([]float64, len(amps))}
	var acc float64
	for i, a := range amps {
		p := real(a)*real(a) + imag(a)*imag(a)
		acc += p
		t.cum[i] = acc
		if p > 0 {
			t.last = uint64(i)
		}
	}
	return t
}

// resolve returns the first index whose running mass exceeds r.
func (t *cdfTable) resolve(r float64) uint64 {
	j := sort.Search(len(t.cum), func(j int) bool { return r < t.cum[j] })
	if j == len(t.cum) {
		return t.last
	}
	return uint64(j)
}

// matches reports whether got is what SampleMany(len(got), src) may
// return over this table's state. eps is the slack on the running mass: a
// program that sums the same weights in another order (chunked, sharded,
// or through a shortcut that differs in the last bits) lands a draw that
// sits within eps of an outcome boundary on either side of it, so each
// draw accepts the index range [resolve(r-eps), resolve(r+eps)].
func (t *cdfTable) matches(got []uint64, src *rng.Source, eps float64) bool {
	k := len(got)
	rs := make([]float64, k)
	for i := range rs {
		rs[i] = src.Float64()
	}
	sort.Float64s(rs)
	lo, hi := make([]uint64, k), make([]uint64, k)
	for i, r := range rs {
		lo[i], hi[i] = t.resolve(r-eps), t.resolve(r+eps)
	}
	for i := k - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		lo[i], lo[j] = lo[j], lo[i]
		hi[i], hi[j] = hi[j], hi[i]
	}
	for i, v := range got {
		if v < lo[i] || v > hi[i] {
			return false
		}
	}
	return true
}
