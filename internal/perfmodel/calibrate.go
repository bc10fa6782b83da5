package perfmodel

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/fft"
	"repro/internal/gates"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// Calibration: the measured model's constants are produced by one run of
// micro-benchmarks over the real kernels and cached on disk as JSON, so
// the compile-time backend selector (internal/backend) never pays timing
// itself — it stays inside the repository's determinism contract (the
// detrng analyzer bans wall clocks in backend) and selections are
// reproducible for a given cache. The wall-clock reads live here, in
// perfmodel, which is outside the deterministic package set.
//
// Resolution order for Active(), the constants the selector consumes:
//
//  1. the JSON cache at Path() (env QEMU_CALIBRATION_FILE, else
//     <user cache dir>/qemu-repro/calibration.json), written by a prior
//     `qemu-model -calibrate`;
//  2. the baked-in Default() reference constants.
//
// Calibration is never implicit: first use on a fresh box runs on the
// defaults (right in ratio, which is all the selector needs) until the
// user or CI runs `qemu-model -calibrate`.

// calibrateQubits sizes the micro-benchmark register: large enough that
// per-sweep fixed costs vanish (2^18 amplitudes, 4 MiB), small enough
// that the whole run finishes in about a second.
const calibrateQubits = 18

// envCalibrationFile overrides the calibration cache location — CI points
// it into the workspace so headless runs need no writable home.
const envCalibrationFile = "QEMU_CALIBRATION_FILE"

// Path returns the calibration cache location: $QEMU_CALIBRATION_FILE if
// set, else qemu-repro/calibration.json under the user cache directory.
// It returns "" when no usable location exists (no env override and no
// resolvable cache dir); Save fails and Load misses in that case.
func Path() string {
	if p := os.Getenv(envCalibrationFile); p != "" {
		return p
	}
	dir, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(dir, "qemu-repro", "calibration.json")
}

// Load reads the calibration cache, reporting ok=false when it is
// missing, unreadable or implausible (non-positive constants).
func Load() (Measured, bool) {
	p := Path()
	if p == "" {
		return Measured{}, false
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return Measured{}, false
	}
	var m Measured
	if err := json.Unmarshal(data, &m); err != nil {
		return Measured{}, false
	}
	if !m.plausible() {
		return Measured{}, false
	}
	return m, true
}

// Save writes m to the calibration cache, creating the directory.
func (m Measured) Save() error {
	p := Path()
	if p == "" {
		return fmt.Errorf("perfmodel: no calibration cache location (set %s)", envCalibrationFile)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(p, append(data, '\n'), 0o644)
}

// plausible sanity-checks loaded constants.
func (m Measured) plausible() bool {
	for _, v := range []float64{m.SweepNs, m.DiagNs, m.PermNs, m.FFTNs, m.RemapNs, m.FillNs} {
		if v <= 0 || v > 1e6 {
			return false
		}
	}
	return true
}

// Active returns the constants the backend selector should use: the
// calibration cache when one exists, else the baked-in defaults. It never
// runs timing.
func Active() Measured {
	if m, ok := Load(); ok {
		return m
	}
	return Default()
}

// bestOf times fn repeatedly until budget has elapsed and returns the
// fastest run in seconds — the same robust minimum estimator qemu-bench
// uses (a GC pause inflates a mean, not a minimum).
// Clock starts a wall clock and returns its reading: the one clock of the
// deterministic engine packages, whose reports (backend.Result.Wall,
// noise.Result.Wall) it times. The detrng analyzer bans any other there.
func Clock() (elapsed func() time.Duration) {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

func bestOf(budget time.Duration, fn func()) float64 {
	var total, best time.Duration
	for runs := 0; total < budget || runs < 2; runs++ {
		start := time.Now()
		fn()
		el := time.Since(start)
		total += el
		if runs == 0 || el < best {
			best = el
		}
		if runs >= 200 {
			break
		}
	}
	return best.Seconds()
}

// Calibrate measures every constant of the model against the live kernels
// at 2^18 amplitudes and returns the result (it does not save; see
// Measured.Save). It runs in roughly a second.
func Calibrate() Measured {
	const n = calibrateQubits
	N := float64(uint64(1) << n)
	budget := 25 * time.Millisecond
	perAmpNs := func(secs float64) float64 { return secs / N * 1e9 }

	src := rng.New(1)
	st := statevec.NewRandom(n, src)
	dense := gates.Rx(0, 0.7)
	diag := gates.Rz(0, 0.7)

	var m Measured
	m.Source = "calibrated"
	m.SweepNs = perAmpNs(bestOf(budget, func() { st.ApplyGate(dense) }))
	m.DiagNs = perAmpNs(bestOf(budget, func() { st.ApplyGate(diag) }))
	m.PermNs = perAmpNs(bestOf(budget, func() {
		st.ApplyPermutation(func(i uint64) uint64 { return i ^ 1 })
	}))

	plan, err := fft.NewPlan(uint64(1) << n)
	if err != nil {
		panic(fmt.Sprintf("perfmodel: calibration FFT plan: %v", err))
	}
	data := make([]complex128, uint64(1)<<n)
	for i := range data {
		data[i] = complex(float64(i%7)*0.1, 0.2)
	}
	m.FFTNs = perAmpNs(bestOf(budget, func() { plan.Unitary(data, st.Workers()) })) / float64(n)

	cl, err := cluster.New(n, 2)
	if err != nil {
		panic(fmt.Sprintf("perfmodel: calibration cluster: %v", err))
	}
	cl.ApplyGate(gates.H(0))
	// One all-to-all round as the scheduler issues it: the node qubit
	// changes places with the top local one, and back on the next call.
	swapped := cl.Placement()
	swapped[n-2], swapped[n-1] = swapped[n-1], swapped[n-2]
	placements := [2][]uint{swapped, cl.Placement()}
	round := 0
	m.RemapNs = perAmpNs(bestOf(budget, func() {
		cl.Remap(placements[round&1])
		round++
	}))

	// The product fill over clusters that cover every qubit, each
	// straddling the rows, so every amplitude is written; filling again
	// overwrites the whole register, so only freshness is restored.
	clusters := [][]uint{{0, n - 1}, {1, 2, n - 3, n - 2}}
	rest := []uint{}
	for q := uint(3); q < n-3; q++ {
		rest = append(rest, q)
	}
	clusters = append(clusters, rest)
	vecs := make([][]complex128, len(clusters))
	for i, qs := range clusters {
		vecs[i] = statevec.NewRandom(uint(len(qs)), src).Amplitudes()
	}
	fill, err := cluster.New(n, 1)
	if err != nil {
		panic(fmt.Sprintf("perfmodel: calibration cluster: %v", err))
	}
	// A fill needs a fresh register, so it is timed after a Reset and the
	// Reset's own time taken off; the floor keeps a noisy difference from
	// pricing the fill at nothing.
	product := statevec.NewProduct(n, n, clusters, vecs)
	both := perAmpNs(bestOf(budget, func() {
		fill.Reset()
		fill.FillProduct(product)
	}))
	m.FillNs = max(both-perAmpNs(bestOf(budget, fill.Reset)), both/10)
	return m
}
