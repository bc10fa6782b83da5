package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForRunsEveryChunkOnce covers the chunk counts a caller produces,
// nested ones included: every index runs exactly once, and For returns only
// after the last.
func TestForRunsEveryChunkOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64} {
		counts := make([]atomic.Int32, n*n)
		For(n, func(i int) {
			For(n, func(j int) { counts[i*n+j].Add(1) })
		})
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: chunk %d ran %d times", n, i, got)
			}
		}
	}
}

// TestOneChunkStaysOnCaller pins that n <= 1 never leaves the calling
// goroutine, and that a worker count of one (GOMAXPROCS 1) keeps every
// chunk there too.
func TestOneChunkStaysOnCaller(t *testing.T) {
	before := offCaller.Load()
	For(1, func(int) {})
	if got := offCaller.Load() - before; got != 0 {
		t.Errorf("a one-chunk For ran %d chunks off the caller", got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before = offCaller.Load()
	For(16, func(int) {})
	if got := offCaller.Load() - before; got != 0 {
		t.Errorf("at GOMAXPROCS 1, %d chunks left the caller", got)
	}
}

// TestWorkersGrowWithGOMAXPROCS pins the pool's size: GOMAXPROCS-1
// workers, more when it rises, none dropped when it falls.
func TestWorkersGrowWithGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{2, 5, 3} {
		runtime.GOMAXPROCS(procs)
		For(2, func(int) {})
		mu.Lock()
		got := started
		mu.Unlock()
		if got < procs-1 {
			t.Errorf("GOMAXPROCS %d: %d workers started, want at least %d", procs, got, procs-1)
		}
	}
	mu.Lock()
	got := started
	mu.Unlock()
	if got < 4 {
		t.Errorf("after GOMAXPROCS fell from 5 to 3, %d workers are left, want 4", got)
	}
}

// TestNestedForBlockedWorkers nests a For inside chunks that all hold the
// pool's workers: the inner callers run their chunks themselves instead of
// waiting on a chunk nobody can start.
func TestNestedForBlockedWorkers(t *testing.T) {
	var total atomic.Int64
	For(runtime.GOMAXPROCS(0)+2, func(int) {
		For(3, func(int) {
			For(3, func(int) { total.Add(1) })
		})
	})
	if want := int64((runtime.GOMAXPROCS(0) + 2) * 9); total.Load() != want {
		t.Errorf("nested For ran %d leaf chunks, want %d", total.Load(), want)
	}
}

// TestPanicReachesCaller panics in the first and in the last chunk: the
// caller sees *Panic with the value and a stack after every other chunk
// ran, no goroutine is lost or left behind, and the pool still works.
func TestPanicReachesCaller(t *testing.T) {
	const n = 8
	For(n, func(int) {}) // start the workers
	before := runtime.NumGoroutine()
	for _, bad := range []int{0, n - 1} {
		var ran atomic.Int32
		p := catch(func() {
			For(n, func(i int) {
				ran.Add(1)
				if i == bad {
					panic("boom")
				}
			})
		})
		if p == nil || p.Value != "boom" || len(p.Stack) == 0 {
			t.Errorf("chunk %d: recovered %#v, want *Panic{Value: \"boom\"} with a stack", bad, p)
		}
		if got := ran.Load(); got != n {
			t.Errorf("chunk %d: %d of %d chunks ran before For panicked", bad, got, n)
		}
	}
	if after := goroutinesAfter(before); after > before {
		t.Errorf("goroutine count went from %d to %d across two chunk panics", before, after)
	}
	var sum atomic.Int64
	For(n, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != n*(n-1)/2 {
		t.Errorf("after the panics, For summed %d, want %d", sum.Load(), n*(n-1)/2)
	}
}

// goroutinesAfter returns the goroutine count once it has come back to at
// most before, or after a second of polling: a goroutine of the runtime or
// the test framework may still be starting or exiting, so only a count
// that stays above before is a leak.
func goroutinesAfter(before int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > before; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestNestedPanicIsNotWrapped pins that a *Panic raised by a For inside a
// chunk reaches the outer caller as it is, carrying the original value.
func TestNestedPanicIsNotWrapped(t *testing.T) {
	p := catch(func() {
		For(4, func(i int) {
			For(4, func(j int) {
				if i == 3 && j == 3 {
					panic("inner")
				}
			})
		})
	})
	if p == nil || p.Value != "inner" {
		t.Errorf("recovered %#v, want *Panic{Value: \"inner\"}", p)
	}
}

// TestForAllocatesNothing pins the warm cost of For itself: with the
// chunk function built once, a call allocates nothing however many chunks
// it has.
func TestForAllocatesNothing(t *testing.T) {
	var sink atomic.Int64
	fn := func(i int) { sink.Add(int64(i)) }
	for _, n := range []int{2, 4, 64} {
		For(n, fn)
		if allocs := testing.AllocsPerRun(100, func() { For(n, fn) }); allocs != 0 {
			t.Errorf("n=%d: %v allocs per For, want 0", n, allocs)
		}
	}
}

// catch runs f and returns the *Panic it raised, or nil.
func catch(f func()) (p *Panic) {
	defer func() { p, _ = recover().(*Panic) }()
	f()
	return nil
}

// BenchmarkFor times an empty For: the fan-out's fixed cost per call.
func BenchmarkFor(b *testing.B) {
	fn := func(int) {}
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				For(n, fn)
			}
		})
	}
}
