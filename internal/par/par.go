// Package par provides the deterministic fork-join primitives shared by the
// simulation kernel, the cluster model and the metrics scans.
//
// The design contract is that worker count NEVER influences results: callers
// partition work into chunks whose boundaries depend only on the problem
// size, keep per-item work self-contained (own state writes, shared state
// reads), and combine floating-point partials in index order. Under that
// contract the scheduler is free to size the pool opportunistically, so one
// machine-wide budget of extra workers is shared by every fork-join user —
// nested parallelism (replications running parallel engines running parallel
// rounds) degrades toward sequential execution instead of oversubscribing
// the machine.
//
// Worker-count semantics, used consistently across the repo:
//
//   - workers <= 0 ("auto"): size from the shared budget, at most GOMAXPROCS
//     concurrent executors machine-wide. This is the default everywhere.
//   - workers == 1: run inline on the caller, no goroutines.
//   - workers > 1 ("explicit"): spawn exactly min(workers, chunks) executors,
//     bypassing the budget. Differential and race tests rely on explicit
//     counts creating real concurrency even on saturated machines.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// extraTokens is the machine-wide budget of additional (beyond-the-caller)
// workers available to auto-sized fork-joins. Capacity GOMAXPROCS-1: the
// caller of every fork-join already occupies one processor, so a fully
// drained budget means every core is busy and new fork-joins run inline.
var extraTokens = func() chan struct{} {
	n := runtime.GOMAXPROCS(0) - 1
	if n < 0 {
		n = 0
	}
	ch := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		ch <- struct{}{}
	}
	return ch
}()

// acquireExtra claims up to n extra-worker tokens without blocking and
// returns how many it got.
func acquireExtra(n int) int {
	got := 0
	for got < n {
		select {
		case <-extraTokens:
			got++
		default:
			return got
		}
	}
	return got
}

// releaseExtra returns n tokens to the budget.
func releaseExtra(n int) {
	for i := 0; i < n; i++ {
		extraTokens <- struct{}{}
	}
}

// Workers resolves a requested worker count to an effective one: values <= 0
// select GOMAXPROCS. It does not consult the shared budget; use it where a
// nominal count is needed (e.g. for reporting).
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// ForChunks partitions [0, n) into contiguous chunks of size chunk (the last
// may be shorter) and calls fn(lo, hi) once per chunk, spread over a bounded
// set of goroutines per the package worker-count semantics. Chunk boundaries
// depend only on n and chunk — never on workers — so callers that reduce
// per-chunk partials in chunk-index order get bit-stable float results
// across worker counts.
//
// Chunks are claimed in index order but may complete in any order; fn must
// not assume chunk c-1 finished before chunk c starts. A panic in fn (on any
// worker) is re-raised in the caller with its original panic value after all
// workers have stopped.
func ForChunks(n, chunk, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	chunks := (n + chunk - 1) / chunk
	target := workers
	auto := workers <= 0
	if auto {
		target = runtime.GOMAXPROCS(0)
	}
	if target > chunks {
		target = chunks
	}
	extra := target - 1
	if auto && extra > 0 {
		extra = acquireExtra(extra)
		defer releaseExtra(extra)
	}
	if extra <= 0 {
		// Inline: no goroutines, panics propagate naturally.
		for c := 0; c < chunks; c++ {
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		return
	}

	var (
		next  atomic.Int64 // next unclaimed chunk index
		stop  atomic.Bool  // set on first panic; workers stop claiming
		mu    sync.Mutex
		pv    any // first recovered panic value
		hasPV bool
		wg    sync.WaitGroup
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if !hasPV {
					hasPV, pv = true, r
				}
				mu.Unlock()
				stop.Store(true)
			}
		}()
		for !stop.Load() {
			c := int(next.Add(1) - 1)
			if c >= chunks {
				return
			}
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	wg.Add(extra)
	for i := 0; i < extra; i++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller participates as a worker
	wg.Wait()
	if hasPV {
		panic(pv)
	}
}

// Task is a reusable slot for one helper goroutine that runs beside its owner:
// the fork-now, join-later counterpart of ForChunks, for work that may overlap
// a stretch of the owner's own sequential code. The zero value is ready. A Task
// is driven by one goroutine — Start and Wait are not themselves concurrent.
type Task struct {
	done  chan struct{} // capacity 1: the helper's one completion send never blocks
	live  bool          // a helper is running or finished and not yet joined
	token bool          // the helper holds one extra-worker token
	fn    func()
	pv    any // recovered panic value, re-raised by Wait
	hasPV bool
}

// Start runs fn on a helper goroutine when the package worker-count semantics
// grant one and reports whether it did: workers == 1 never, workers > 1
// always, auto (<= 0) only while the shared budget yields a token without
// blocking — so a saturated machine, or GOMAXPROCS 1, leaves the work to the
// caller. Nothing runs when it returns false. Every true return must be paired
// with a Wait before the next Start.
func (t *Task) Start(workers int, fn func()) bool {
	if t.live {
		panic("par: Task started twice without Wait")
	}
	if workers == 1 {
		return false
	}
	if workers <= 0 {
		if acquireExtra(1) == 0 {
			return false
		}
		t.token = true
	}
	if t.done == nil {
		t.done = make(chan struct{}, 1)
	}
	t.live, t.fn = true, fn
	go t.run()
	return true
}

func (t *Task) run() {
	defer func() {
		if r := recover(); r != nil {
			t.pv, t.hasPV = r, true
		}
		t.done <- struct{}{}
	}()
	t.fn()
}

// Wait joins the helper Start launched, returns its token to the budget and
// re-raises its panic, if any, in the caller with the original value — as
// ForChunks does for its workers. Without a live helper it does nothing, so it
// is safe to defer.
func (t *Task) Wait() {
	if !t.live {
		return
	}
	<-t.done
	t.live, t.fn = false, nil
	if t.token {
		t.token = false
		releaseExtra(1)
	}
	if t.hasPV {
		pv := t.pv
		t.pv, t.hasPV = nil, false
		panic(pv)
	}
}

// OrderedSum computes sum(fn(0) + fn(1) + ... + fn(n-1)) with the per-item
// evaluations fanned out over workers but the final float summation folded
// strictly in index order, so the result is bit-identical to the sequential
// loop regardless of worker count or chunking.
func OrderedSum(n, chunk, workers int, fn func(i int) float64) float64 {
	if n <= 0 {
		return 0
	}
	vals := make([]float64, n)
	ForChunks(n, chunk, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vals[i] = fn(i)
		}
	})
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum
}

// OrderedCount counts the i in [0, n) for which pred(i) holds, with the
// predicate evaluations fanned out over workers. Integer addition is exact,
// so per-chunk partials may be combined in any order.
func OrderedCount(n, chunk, workers int, pred func(i int) bool) int {
	if n <= 0 {
		return 0
	}
	var total atomic.Int64
	ForChunks(n, chunk, workers, func(lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if pred(i) {
				c++
			}
		}
		total.Add(int64(c))
	})
	return int(total.Load())
}
