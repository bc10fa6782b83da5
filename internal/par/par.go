// Package par runs the engine's one parallel loop, For: chunks 0..n-1 of
// some work on the calling goroutine and a process-wide set of workers, so
// a panic in any fan-out reaches its caller in one typed form.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Panic is what For re-raises on its caller when a chunk panicked: the
// first recovered value and the stack it panicked on.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string { return fmt.Sprintf("par: chunk panicked: %v\n\n%s", p.Value, p.Stack) }

// offCaller counts the chunks workers have run rather than For's caller;
// tests read it by name (go:linkname).
var offCaller atomic.Int64

// job is one For call, recycled through free so a warm For allocates
// nothing of its own — under the race detector too, where a sync.Pool
// drops a share of what it is handed. Workers join it only while it has
// chunks to claim, so the caller never waits on a worker that has not
// started.
type job struct {
	fn    func(int)
	n     int64
	next  atomic.Int64  // the next unclaimed chunk
	refs  atomic.Int32  // the caller and the joined workers still running chunks
	slots int           // how many more workers may join; read and written under mu
	done  chan struct{} // the last joined worker to finish tells the caller
	panic atomic.Pointer[Panic]
}

var (
	mu      sync.Mutex
	wakeup  = sync.NewCond(&mu)
	open    []*job // jobs whose caller may still be claiming chunks; under mu
	free    []*job // finished jobs for the next For; under mu
	parked  int    // workers waiting on wakeup; under mu
	started int    // workers started, for the life of the process; under mu
)

// For calls fn(i) for every i in [0, n) and returns once all have
// finished; n <= 1 runs inline. The caller runs chunk 0, then it and up to
// min(n-1, GOMAXPROCS-1) workers claim the rest from one counter. The
// caller claims while any are left, so a For nested in a chunk never waits
// on a chunk nobody started, and a worker joins any open job before it
// parks. If chunks panic, the rest still run, then For re-panics on the
// caller with the first as a *Panic (a nested For's passes through as is).
func For(n int, fn func(i int)) {
	if n <= 1 {
		if n == 1 {
			fn(0)
		}
		return
	}
	want := runtime.GOMAXPROCS(0) - 1
	mu.Lock()
	var j *job
	if k := len(free); k > 0 {
		j, free = free[k-1], free[:k-1]
	} else {
		j = &job{done: make(chan struct{}, 1)}
	}
	j.fn, j.n = fn, int64(n)
	j.next.Store(1)
	j.refs.Store(1)
	for ; started < want; started++ {
		go work()
	}
	j.slots = min(n-1, want)
	open = append(open, j)
	for k := min(j.slots, parked); k > 0; k-- {
		wakeup.Signal()
	}
	mu.Unlock()

	j.call(0)
	j.run(false)
	mu.Lock()
	i := slices.Index(open, j)
	open = slices.Delete(open, i, i+1)
	mu.Unlock()
	if j.refs.Add(-1) != 0 {
		<-j.done
	}
	p := j.panic.Swap(nil)
	j.fn = nil
	mu.Lock()
	free = append(free, j)
	mu.Unlock()
	if p != nil {
		panic(p)
	}
}

// spinFor is how long a worker out of chunks polls for a new job before
// it parks: a kernel's or a superstep's next fan-out usually comes sooner
// than a parked thread wakes (about 100 µs on a virtual machine).
const spinFor = 50 * time.Microsecond

// work is a worker: it joins open jobs, oldest first, and parks once none
// has had a chunk to claim for spinFor.
func work() {
	mu.Lock()
	for idle := time.Now(); ; {
		if i := slices.IndexFunc(open, joinable); i >= 0 {
			j := open[i]
			j.slots--
			j.refs.Add(1)
			mu.Unlock()
			j.run(true)
			if j.refs.Add(-1) == 0 {
				j.done <- struct{}{}
			}
			mu.Lock()
			idle = time.Now()
		} else if time.Since(idle) < spinFor {
			mu.Unlock()
			runtime.Gosched()
			mu.Lock()
		} else {
			parked++
			wakeup.Wait()
			parked--
			idle = time.Now()
		}
	}
}

// joinable reports whether a worker may still join j: it has a slot left
// and a chunk to claim. It is called with mu held.
func joinable(j *job) bool { return j.slots > 0 && j.next.Load() < j.n }

// run claims and runs chunks until none are left; a worker counts each
// before it starts.
func (j *job) run(worker bool) {
	for i := j.next.Add(1) - 1; i < j.n; i = j.next.Add(1) - 1 {
		if worker {
			offCaller.Add(1)
		}
		j.call(int(i))
	}
}

// call runs chunk i, recording the first panic of the job.
func (j *job) call(i int) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := r.(*Panic)
			if !ok {
				p = &Panic{Value: r, Stack: debug.Stack()}
			}
			j.panic.CompareAndSwap(nil, p)
		}
	}()
	j.fn(i)
}
