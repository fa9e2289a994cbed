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
//   - workers == 1: run inline on the caller, no other goroutine.
//   - workers > 1 ("explicit"): run on exactly min(workers, chunks)
//     executors, the extra ones drawn from a spare pool beside the budget.
//     Differential and race tests rely on explicit counts creating real
//     concurrency even on saturated machines.
//
// The extra executors are persistent workers (pool.go), so a fork posts to
// a goroutine that is already running instead of starting one.
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
// Each token is a worker; it starts out nil and becomes one on first use.
var extraTokens = make(chan *worker, max(runtime.GOMAXPROCS(0)-1, 0))

func init() {
	for i := 0; i < cap(extraTokens); i++ {
		extraTokens <- nil
	}
}

// spare holds the idle workers of explicit fork-joins. It is not bounded: it
// grows to the most extra executors explicit fork-joins have held at once.
var spare struct {
	sync.Mutex
	ws []*worker
}

// acquire takes one worker: from the budget when auto, returning nil if the
// budget is drained; otherwise from the spare pool, growing it if empty.
func acquire(auto bool) *worker {
	if auto {
		select {
		case w := <-extraTokens:
			if w == nil {
				w = newWorker()
			}
			return w
		default:
			return nil
		}
	}
	spare.Lock()
	defer spare.Unlock()
	if n := len(spare.ws); n > 0 {
		w := spare.ws[n-1]
		spare.ws = spare.ws[:n-1]
		return w
	}
	return newWorker()
}

// release returns a worker acquire handed out, after its job is joined.
func release(w *worker, auto bool) {
	if auto {
		extraTokens <- w
		return
	}
	spare.Lock()
	spare.ws = append(spare.ws, w)
	spare.Unlock()
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

// fork is one ForChunks call's shared state: the chunk cursor its executors
// claim from and the join its workers report to. Forks are recycled.
type fork struct {
	join
	n, chunk, chunks int
	fn               func(lo, hi int)
	next             atomic.Int64 // next unclaimed chunk index
	stop             atomic.Bool  // set on first panic; executors stop claiming
	ws               []*worker
}

var forks = sync.Pool{New: func() any { return &fork{join: join{wake: make(chan struct{}, 1)}} }}

// run is a worker's share of the fork.
func (f *fork) run() {
	defer f.done()
	f.work()
}

// work claims and runs chunks until none is left or an executor panicked.
func (f *fork) work() {
	defer func() {
		if r := recover(); r != nil {
			f.fail(r)
			f.stop.Store(true)
		}
	}()
	for !f.stop.Load() {
		c := int(f.next.Add(1) - 1)
		if c >= f.chunks {
			return
		}
		lo := c * f.chunk
		f.fn(lo, min(lo+f.chunk, f.n))
	}
}

// ForChunks partitions [0, n) into contiguous chunks of size chunk (the last
// may be shorter) and calls fn(lo, hi) once per chunk, spread over a bounded
// set of executors per the package worker-count semantics. Chunk boundaries
// depend only on n and chunk — never on workers — so callers that reduce
// per-chunk partials in chunk-index order get bit-stable float results
// across worker counts.
//
// Chunks are claimed in index order but may complete in any order; fn must
// not assume chunk c-1 finished before chunk c starts. A panic in fn (on any
// executor) is re-raised in the caller with its original panic value after
// all workers have stopped.
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
	extra := min(target, chunks) - 1
	var first *worker
	if extra > 0 {
		first = acquire(auto)
	}
	if first == nil {
		// Inline: no other goroutine, panics propagate naturally.
		for lo := 0; lo < n; lo += chunk {
			fn(lo, min(lo+chunk, n))
		}
		return
	}

	f := forks.Get().(*fork)
	f.ws = append(f.ws[:0], first)
	for len(f.ws) < extra {
		w := acquire(auto)
		if w == nil {
			break
		}
		f.ws = append(f.ws, w)
	}
	f.n, f.chunk, f.chunks, f.fn = n, chunk, chunks, fn
	f.next.Store(0)
	f.stop.Store(false)
	f.left.Store(int32(len(f.ws)))
	for _, w := range f.ws {
		w.post(f)
	}
	defer f.finish(auto)
	f.work() // the caller participates as an executor
}

// finish joins f's workers, returns them and f to their pools and re-raises
// the first panic. ForChunks defers it, so a caller that leaves its own share
// by runtime.Goexit (a test's FailNow) still gives its workers back.
func (f *fork) finish(auto bool) {
	pv, panicked := f.wait()
	for _, w := range f.ws {
		release(w, auto)
	}
	f.fn = nil
	forks.Put(f)
	if panicked {
		panic(pv)
	}
}

// Task is a reusable slot for one helper that runs beside its owner: the
// fork-now, join-later counterpart of ForChunks, for work that may overlap a
// stretch of the owner's own sequential code. The zero value is ready. A Task
// is driven by one goroutine — Start and Wait are not themselves concurrent.
type Task struct {
	join
	w    *worker // the helper's worker while one is live (running or not yet joined)
	auto bool    // w came from the budget
	fn   func()
}

// Start runs fn on a helper worker when the package worker-count semantics
// grant one and reports whether it did: workers == 1 never, workers > 1
// always, auto (<= 0) only while the shared budget yields a worker without
// blocking — so a saturated machine, or GOMAXPROCS 1, leaves the work to the
// caller. Nothing runs when it returns false. Every true return must be paired
// with a Wait before the next Start.
func (t *Task) Start(workers int, fn func()) bool {
	if t.w != nil {
		panic("par: Task started twice without Wait")
	}
	if workers == 1 {
		return false
	}
	auto := workers <= 0
	w := acquire(auto)
	if w == nil {
		return false
	}
	if t.wake == nil {
		t.wake = make(chan struct{}, 1)
	}
	t.w, t.auto, t.fn = w, auto, fn
	t.left.Store(1)
	w.post(t)
	return true
}

// run is the helper's side of the Task.
func (t *Task) run() {
	defer t.done()
	defer func() {
		if r := recover(); r != nil {
			t.fail(r)
		}
	}()
	t.fn()
}

// Wait joins the helper Start launched, returns its worker to the budget (or
// the spare pool) and re-raises its panic, if any, in the caller with the
// original value — as ForChunks does for its workers. Without a live helper
// it does nothing, so it is safe to defer.
func (t *Task) Wait() {
	if t.w == nil {
		return
	}
	pv, panicked := t.wait()
	release(t.w, t.auto)
	t.w, t.fn = nil, nil
	if panicked {
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
