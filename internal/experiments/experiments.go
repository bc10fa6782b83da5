// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4) on the repository's substrates: the arithmetic
// emulation-vs-simulation sweeps (Figs. 1-2), the distributed QFT weak
// scaling (Figs. 3-4), the single-node simulator comparisons (Figs. 5-6),
// the QPE cost/cross-over table (Table 2), and the measurement-shortcut
// ablation (Section 3.4).
//
// Each experiment returns typed rows plus a formatted table, so the
// qemu-bench command and the tests share one implementation. Every timed
// series runs through backend.Compile and Backend.Run (timeTarget) — the
// path qemu-run and qemu-serve execute — except the raw-kernel baselines
// the paper's ablations name: gate-by-gate statevec loops (fusion's
// nofuse), the naive per-gate cluster engine (Figure 4's qHiPSTER-class
// series, the cluster sweep's naive series) and the sin oracle, a
// function with no circuit to compile, timed as a raw ApplyPermutation.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/statevec"
)

// timeIt measures the wall time of one execution of fn, repeating the
// setup+run pair until minDuration has elapsed (at most 1000 times) so
// short operations are resolved accurately, and reports the BEST (minimum)
// run: a GC pause or scheduler spike inflates the mean of a handful of
// runs by tens of percent, but the fastest run reflects what the code
// actually costs. setup (which may be nil) is excluded from timing.
func timeIt(minDuration time.Duration, setup func(), fn func()) float64 {
	var total, best time.Duration
	for runs := 0; runs < 1000 && (runs == 0 || total < minDuration); runs++ {
		if setup != nil {
			setup()
		}
		start := time.Now()
		fn()
		elapsed := time.Since(start)
		total += elapsed
		if runs == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best.Seconds()
}

// timeTarget compiles c for t once and times Run on one backend of that
// target — the path qemu-run and qemu-serve execute — returning the best
// run and its Result (compilation excluded). With init non-nil every run
// starts from a copy of it, loaded outside the timed region; with nil each
// run continues from the state the last one left, which is all the auto
// target allows: its engine exists only once a Run has resolved it. Where
// the first Run sets something up for the rest — that engine, or what
// recognised ops build on first use: transform tables and the permutation
// scratch buffer, whose first touch costs several times the sweep — one
// untimed Run goes first, or a row slow enough to be timed once would report
// the set-up. The sweeps compile generated circuits for targets they chose,
// so an error here is a bug and panics.
func timeTarget(c *circuit.Circuit, t backend.Target, init *statevec.State) (float64, *backend.Result) {
	x, err := backend.Compile(c, t)
	if err != nil {
		panic(fmt.Sprintf("experiments: compile for %+v: %v", t, err))
	}
	b, err := backend.New(t)
	if err != nil {
		panic(fmt.Sprintf("experiments: open %+v: %v", t, err))
	}
	defer b.Close()
	var load func()
	if init != nil {
		load = func() { b.State().CopyFrom(init) }
		if cb, ok := b.(interface{ Cluster() *cluster.Cluster }); ok {
			// LoadState also resets the placement, so no run pays for
			// canonicalising the layout the previous one ended in.
			load = func() {
				if err := cb.Cluster().LoadState(init); err != nil {
					panic(err)
				}
			}
		}
	}
	var res *backend.Result
	run := func() {
		if res, err = b.Run(x); err != nil {
			panic(fmt.Sprintf("experiments: run on %+v: %v", t, err))
		}
	}
	if init == nil || x.EmulatedGates > 0 {
		if load != nil {
			load()
		}
		run()
	}
	return timeIt(shortTime, load, run), res
}

// oursWidth is the block-fusion width every "ours" series compiles at: the
// width all of BENCHMARK.json's explicit-target workloads serve at.
const oursWidth = 4

// oursTarget is the paper's simulator as served: the fused engine at
// oursWidth, emulation off.
func oursTarget(n uint) backend.Target {
	return backend.Target{NumQubits: n, Kind: backend.Fused, FuseWidth: oursWidth}
}

// oursHeader labels a column timed on oursTarget with the width it ran at.
func oursHeader(name string) string { return fmt.Sprintf("%s (fused w=%d)", name, oursWidth) }

// shortTime is the default resolution floor for per-operation timings.
const shortTime = 30 * time.Millisecond

// Table renders rows of columns as an aligned text table.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func secs(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 1e-6:
		return fmt.Sprintf("%.1f ns", v*1e9)
	case v < 1e-3:
		return fmt.Sprintf("%.2f µs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.2f ms", v*1e3)
	default:
		return fmt.Sprintf("%.3f s", v)
	}
}
