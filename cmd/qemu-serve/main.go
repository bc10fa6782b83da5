// Command qemu-serve is the compile-once/run-many simulation daemon: an
// HTTP service that accepts qasm circuits, compiles each one exactly
// once through the backend pass pipeline, and serves every later shot
// request from the cached compiled artifact and its prepared state (see
// internal/serve for the API and cache policy).
//
// Usage:
//
//	qemu-serve [-addr :8451] [-cache-qubits N | -cache-bytes B]
//	           [-persist DIR] [-workers K] [-max-shots K]
//	           [-fuse-width K] [-emulate off|annotated|auto] [-nodes P]
//	           [-no-auto]
//
// By default (no -fuse-width, no -nodes, -emulate auto) the daemon
// compiles every circuit for the profile-driven auto target: each
// artifact gets the engine the cost model picks for that circuit, so
// mixed clients don't share one compromise shape. Pin -fuse-width or
// -nodes (or pass -no-auto) to compile everything for one fixed target.
//
// The cache budget is expressed either directly in bytes or as
// -cache-qubits N, the working set of one N-qubit session (16<<N
// bytes); a circuit wider than the budget holds is answered 400 unrun.
// -persist DIR keeps admitted artifacts on disk as <key>.qexe
// and warm-starts the cache from them on restart.
//
// Quickstart:
//
//	qemu-serve -emulate auto &
//	curl -s localhost:8451/v1/run -d '{"qasm":"qubits 2\nh 0\ncnot 0 1\n","shots":5,"seed":1}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/recognize"
	"repro/internal/serve"
)

// Connection timeouts. A client that trickles its request headers, or
// holds a keep-alive connection open without a next request, ties up a
// socket and a goroutine for nothing. There is no ReadTimeout or
// WriteTimeout: a long trajectory batch legitimately runs for minutes, and
// bounding it is a per-request deadline's job, not the socket's.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr        = flag.String("addr", ":8451", "listen address")
		cacheBytes  = flag.Uint64("cache-bytes", 0, "cache budget in session-state bytes (0 = use -cache-qubits)")
		cacheQubits = flag.Uint("cache-qubits", 0, "cache budget as one N-qubit session, 16<<N bytes (0 = the 2 GiB default)")
		persist     = flag.String("persist", "", "artifact persistence directory (enables warm starts)")
		workers     = flag.Int("workers", 0, "total concurrent worker budget (0 = GOMAXPROCS)")
		maxShots    = flag.Int("max-shots", 0, "per-request shot limit (0 = 1<<20)")
		fuseWidth   = flag.Int("fuse-width", 0, "multi-qubit fusion width (0 = classic same-target fusion)")
		emulate     = flag.String("emulate", "auto", "emulation dispatch: off, annotated, auto")
		nodes       = flag.Int("nodes", 0, "shard across this many emulated cluster nodes (power of two)")
		noAuto      = flag.Bool("no-auto", false, "disable profile-driven selection; run the fixed default shape")
	)
	flag.Parse()

	mode, err := recognize.ParseMode(*emulate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qemu-serve: -emulate:", err)
		os.Exit(2)
	}
	tgt := backend.Target{FuseWidth: *fuseWidth, Nodes: *nodes, Emulate: mode}
	// With nothing pinned, each circuit picks its own engine: the daemon
	// compiles through the profile-driven selector, so a QFT-heavy client
	// gets emulation dispatch while a dense ansatz gets wide fusion —
	// per artifact, decided at compile time and cached with it.
	if !*noAuto && mode == recognize.Auto && *fuseWidth < 2 && *nodes <= 1 {
		tgt = backend.Target{Auto: true}
	}
	budget := *cacheBytes
	if budget == 0 && *cacheQubits > 0 {
		budget = 16 << *cacheQubits
	}
	if *persist != "" {
		if err := os.MkdirAll(*persist, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	svc, err := serve.New(serve.Config{
		Target:       tgt,
		CacheBytes:   budget,
		PersistDir:   *persist,
		TotalWorkers: *workers,
		MaxShots:     *maxShots,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	srv := &http.Server{Addr: *addr, Handler: svc.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	shape := "auto"
	if !tgt.Auto {
		shape = backend.DescribeTarget(tgt)
	}
	fmt.Printf("qemu-serve listening on %s (cache %s, target %s)\n",
		*addr, formatBytes(svc.Stats().Cache.Budget), shape)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case <-sig:
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
	}
	svc.Close()
}

func formatBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	}
	return fmt.Sprintf("%d B", b)
}
