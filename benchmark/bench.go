package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"
)

// runCtx is what one workload run is given.
type runCtx struct {
	Seed    uint64
	Seconds float64 // length of the timed phase
	Workers int
	Smoke   bool   // tiny sizes, a handful of operations, oracles on
	Trace   bool   // traced pass and layer probes; per-layer metrics only
	OutDir  string // where trace files go
	// CorruptSample flips one drawn sample before the oracles look at it.
	// Only the self-test sets it, to show that a wrong answer fails a run.
	CorruptSample bool
}

// passSeconds is the length of one timed loop. A traced run splits its
// seconds between the untraced and the traced loop; a smoke run makes only
// each loop's minimum number of operations.
func (ctx *runCtx) passSeconds() float64 {
	switch {
	case ctx.Smoke:
		return 0
	case ctx.Trace:
		return ctx.Seconds / 2
	}
	return ctx.Seconds
}

// workload is one entry of the benchmark's registry; BENCHMARK.json
// carries the same names with the reason each exists.
type workload struct {
	Name string
	Run  func(ctx *runCtx) (*outcome, error)
}

// workloads is the registry, in the order they run.
var workloads = []workload{
	{"gate-sweep", runGateSweep},
	{"emulate-mix", runEmulateMix},
	{"cluster-shard", runClusterShard},
	{"compile-cold", runCompileCold},
	{"serve-mix", runServeMix},
	{"noise-traj", runNoiseTraj},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// refInterval is how much operation time may pass between two reference
// samples; the slow-downs of a shared host last seconds to minutes, so a
// tenth of a second tracks them.
const refInterval = 100 * time.Millisecond

// refBurst is how many reference samples one sampling point takes.
const refBurst = 5

// meter runs a closed loop of operations for a fixed wall time, keeping
// two timestamps per operation and sampling the reference sweep between
// operations. Reference time is not part of any operation's time.
type meter struct {
	ref yardstick
	// Stride, when above 1, lets the loop stop only at multiples of it:
	// a workload cycling through a corpus ends on a whole pass, so every
	// run times the same mix of inputs.
	Stride int
	// Prepare, when set, runs before each operation outside every timed
	// interval (generating the next inputs); an error stops the loop.
	Prepare func(i int) error
	Ops     []float64 // seconds per timed call, in order
	Refs    []float64 // seconds per reference sample, in order
	refAt   []int     // refAt[i] is len(Refs) when timed call i started
	sinceRf time.Duration
	wall    time.Duration // Σ timed calls, no reference or preparation time
}

func newMeter(ref yardstick) *meter {
	ref.sample() // first touch of the reference's arrays and connections
	return &meter{ref: ref}
}

func (m *meter) sampleRef() {
	for i := 0; i < refBurst; i++ {
		m.Refs = append(m.Refs, m.ref.sample())
	}
	m.sinceRf = 0
}

// loop calls op until seconds of wall time (operations, preparation and
// reference sampling together) have passed, at least minOps times, and
// returns the first error of op or Prepare.
func (m *meter) loop(seconds float64, minOps int, op func(i int) error) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	m.sampleRef()
	for i := 0; i < minOps || (m.Stride > 1 && i%m.Stride != 0) || time.Now().Before(deadline); i++ {
		if m.sinceRf >= refInterval {
			m.sampleRef()
		}
		if m.Prepare != nil {
			if err := m.Prepare(i); err != nil {
				return err
			}
		}
		refsBefore := len(m.Refs)
		start := time.Now()
		err := op(i)
		d := time.Since(start)
		if err != nil {
			return err
		}
		m.Ops = append(m.Ops, d.Seconds())
		m.refAt = append(m.refAt, refsBefore)
		m.sinceRf += d
		m.wall += d
	}
	m.sampleRef()
	return nil
}

// localRef is the yardstick around timed call i: the median of the
// reference bursts taken just before it and next after it. Correcting each
// operation by the reference of its own moment, rather than by the run's,
// is what cancels a slow-down that comes and goes within a run; on
// recorded runs the median of such values spread 10-70% narrower than the
// two medians combined.
func (m *meter) localRef(i int) float64 {
	lo, hi := m.refAt[i]-refBurst, m.refAt[i]+refBurst
	if lo < 0 {
		lo = 0
	}
	if hi > len(m.Refs) {
		hi = len(m.Refs)
	}
	return median(m.Refs[lo:hi])
}

// refExponent is how much of a change in the reference's time is taken
// out of an operation's. The reference is arithmetic and streaming on
// every thread and nothing else; an operation also parses, allocates,
// synchronises and waits, and the machine's moods touch those less: over
// the recorded ten-run sets (README, "Measured spread") the log-log slope
// of a workload's time against the reference's is 0.5-0.8, not 1.
// Dividing by the whole reference over-corrects: between two sets taken
// twenty minutes apart the reference ran 1.46x faster and emulate-mix
// 1.22x, so the plain ratio read 21% worse on identical code and inputs;
// at 0.7 those two sets differ by 7% or less on every workload, and the
// spread within a set is about as narrow as at 1 or narrower.
const refExponent = 0.7

// normalised expresses latencies (seconds) in normalised seconds: wall
// seconds scaled by (nominal reference / reference at that moment) to the
// power refExponent — what the operation would have taken with the machine
// at its nominal speed. perCall consecutive latencies belong to one timed
// call: 1 for a single closed loop, the block size where a timed call
// carries many operations.
func (m *meter) normalised(latencies []float64, perCall int) []float64 {
	out := make([]float64, len(latencies))
	for i, d := range latencies {
		out[i] = d * math.Pow(m.ref.nominal()/m.localRef(i/perCall), refExponent)
	}
	return out
}

// endToEnd fills the gated latency and rate metrics: the median operation
// in normalised seconds, and operations per normalised second of timed
// wall.
func (m *meter) endToEnd(o *outcome, latencies []float64, perCall int) {
	var wall float64
	for _, w := range m.normalised(m.Ops, 1) {
		wall += w
	}
	o.Attempted = len(latencies)
	o.EndToEnd.set("op_norm_s_p50", median(m.normalised(latencies, perCall)), "s")
	o.EndToEnd.set("ops_per_norm_s", float64(len(latencies))/wall, "1/s")
	o.Raw.set("ref_sweep_ms", median(m.Refs)*1e3, "ms")
	o.Raw.set("ref_samples", float64(len(m.Refs)), "count")
	o.Raw.set("op_samples", float64(len(latencies)), "count")
}

// setupCycles runs cycle an odd number of times, sampling ref around each,
// and returns the median cycle in normalised seconds and in wall seconds.
// Between cycles (outside the timing) release, if any, lets go of what the
// previous cycle opened and the garbage is collected, so cycles do not
// stack their states in the process's peak memory.
func setupCycles(n int, ref yardstick, release func(), cycle func() error) (norm, wall float64, err error) {
	m := newMeter(ref)
	m.Prepare = func(i int) error {
		if i > 0 && release != nil {
			release()
		}
		collectFinalized()
		return nil
	}
	err = m.loop(0, n, func(i int) error {
		if err := cycle(); err != nil {
			return fmt.Errorf("set-up cycle %d: %w", i, err)
		}
		return nil
	})
	return median(m.normalised(m.Ops, 1)), median(m.Ops), err
}

// collectFinalized frees what the last cycle let go of and hands the pages
// back to the operating system, so every cycle first-touches its memory the
// way a cold open does and the cycles do not stack in peak_rss_mb. A
// statevec.State carries a finalizer: its amplitudes survive the collection
// that finds it unreachable and go in the next one, after the finalizer
// goroutine has run. Freed pages the runtime still holds stay resident until
// its scavenger gets to them; left to that, a new state sometimes lands
// beside the old one's pages and peak memory reads one state higher in a
// quarter of the runs.
func collectFinalized() {
	runtime.GC()
	time.Sleep(time.Millisecond) // lets the finalizer goroutine run
	debug.FreeOSMemory()
}

// setupRepeats is how many set-up cycles a run makes: an odd number whose
// median is reported, one in a smoke run.
func (ctx *runCtx) setupRepeats() int {
	if ctx.Smoke {
		return 1
	}
	return 5
}

// finishEndToEnd adds the metrics every workload reports the same way.
// It must run before the oracles allocate their reference states.
func finishEndToEnd(o *outcome, setupNorm, setupWall float64) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	o.EndToEnd.set("setup_s", setupNorm, "s")
	o.Raw.set("setup_wall_s", setupWall, "s")
	o.EndToEnd.set("peak_rss_mb", rss, "MiB")
	return nil
}

// evens returns xs[0], xs[2], ...: the traced passes alternate the
// operation as the untraced pass runs it (even calls) with a variant that
// exposes more spans (odd calls).
func evens(xs []float64) []float64 {
	var out []float64
	for i := 0; i < len(xs); i += 2 {
		out = append(out, xs[i])
	}
	return out
}

// timed runs f and returns its wall time in seconds.
func timed(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}
