package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// The reference is the benchmark's own yardstick for how fast the machine
// is at this moment. On a shared host the same binary runs 10-75% slower
// for minutes at a time (a neighbour on the sibling hyper-thread, contended
// memory bandwidth), which is more than any bound a regression check could
// use. So every timed operation is also expressed in normalised seconds:
// its wall time corrected (meter.normalised) by how long a fixed,
// benchmark-owned piece of work with the same threading takes at that
// moment, sampled between operations throughout the run. The reference
// shares no code with the program under test, so a change to the program
// cannot move the yardstick.

// yardstick is what a meter samples between operations: one call does a
// fixed piece of benchmark-owned work and returns its wall time in seconds.
// nominal is that time on the build box in a quiet hour, the speed
// normalised seconds refer to.
type yardstick interface {
	sample() float64
	nominal() float64
}

// sweepReference is the yardstick of the compute workloads: a
// Hadamard-style butterfly over complex128 arrays — the arithmetic of a
// one-qubit gate — in two phases of about equal length, each run by
// Workers goroutines that meet at a barrier like a parallel gate kernel.
// The streaming phase sweeps a shared array larger than the L2 caches
// (slowed by contended memory bandwidth); the resident phase sweeps a
// private L1/L2-sized array per worker many times (slowed by a busy
// sibling hyper-thread). A neighbour hurts a dense fused block, an FFT, a
// permutation and a compile each in a different mix of the two; measured
// over ten runs per workload, the sum tracks every one of them within 7%
// where either phase alone misses some by 12-25%.
type sweepReference struct {
	stream   [][]complex128 // one slice of the shared array per worker
	resident [][]complex128 // one private array per worker
}

const (
	refStreamBits   = 19  // 8 MiB shared array: 2x the two cores' L2
	refStreamReps   = 2   // sweeps of it per sample
	refResidentBits = 12  // 64 KiB per worker
	refResidentReps = 256 // sweeps of it per sample
)

func newSweepReference(workers int) *sweepReference {
	r := &sweepReference{}
	arr := make([]complex128, 1<<refStreamBits)
	arr[0] = 1
	per := len(arr) / workers
	for w := 0; w < workers; w++ {
		r.stream = append(r.stream, arr[w*per:(w+1)*per])
		private := make([]complex128, 1<<refResidentBits)
		private[0] = 1
		r.resident = append(r.resident, private)
	}
	return r
}

// butterfly applies the 2x2 Hadamard to adjacent pairs, reps times. The
// transform is unitary and self-inverse, so amplitudes stay bounded.
func butterfly(a []complex128, reps int) {
	const s = 0.7071067811865476
	for r := 0; r < reps; r++ {
		for i := 0; i+1 < len(a); i += 2 {
			x, y := a[i], a[i+1]
			a[i] = complex(s, 0) * (x + y)
			a[i+1] = complex(s, 0) * (x - y)
		}
	}
}

// phase sweeps every slice reps times, one goroutine per slice.
func phase(slices [][]complex128, reps int) {
	if len(slices) == 1 {
		butterfly(slices[0], reps)
		return
	}
	var wg sync.WaitGroup
	for _, sl := range slices {
		wg.Add(1)
		go func(a []complex128) {
			defer wg.Done()
			butterfly(a, reps)
		}(sl)
	}
	wg.Wait()
}

func (r *sweepReference) nominal() float64 { return 3.5e-3 }

func (r *sweepReference) sample() float64 {
	start := time.Now()
	phase(r.stream, refStreamReps)
	phase(r.resident, refResidentReps)
	return time.Since(start).Seconds()
}

// httpReference is the yardstick of the HTTP workload, whose median
// operation is a sub-millisecond round trip dominated by loopback,
// scheduler wake-ups and the HTTP stack rather than by arithmetic — costs
// a compute sweep over-reacts to. One sample is clients goroutines each
// making httpRefGets round trips to a benchmark-owned handler that
// answers "ok": the cheapest request the machine can serve right now.
type httpReference struct {
	srv     *httptest.Server
	client  *http.Client
	clients int
}

// httpRefGets round trips per client make one sample (a few hundred
// microseconds), so one slow wake-up does not decide it.
const httpRefGets = 10

func newHTTPReference(clients int) *httpReference {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	return &httpReference{srv: srv, client: srv.Client(), clients: clients}
}

func (r *httpReference) close() { r.srv.Close() }

func (r *httpReference) nominal() float64 { return 0.6e-3 }

func (r *httpReference) sample() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < httpRefGets; i++ {
				resp, err := r.client.Get(r.srv.URL)
				if err != nil {
					continue // the sample just reads short; the run's oracles are elsewhere
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}
