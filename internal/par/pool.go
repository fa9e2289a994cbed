package par

import (
	"runtime"
	"sync/atomic"
	"time"
)

// spinWindow is how long an idle worker polls its mailbox, and a joiner its
// helpers, before parking on a channel. On the two-core ledger host (a Xeon
// VM, GOMAXPROCS 2) a goroutine started per fork reached its job a median
// 22–413 µs late, depending on the fork site; a polling worker takes 1–2 µs.
// The window is sized from the idle gap of the budget's one worker between
// two jobs on the bench workloads (bench/run.sh --seconds 10 --trace 0), in
// µs:
//
//	workload           p50   p75    p90    p99
//	paper_glap         113   212    294   6889
//	baselines           93   146    357   3637
//	consolidate_warm   259   340   1652  10983
//	async_lossy        302   437   1849  12105
//	agg_scale          430   968   3140  15814
//
// 1 ms covers three quarters of the gaps everywhere and nine in ten where
// rounds fork most often. A longer gap is a round whose sequential work
// outlasts the window by itself; the wake-up it then pays costs about what a
// started goroutine did (~100 µs at most), a tenth of such a gap or less.
// Polling costs processor time, up to one window of it after every job.
const spinWindow = time.Millisecond

// spin polls v until it holds want, for at most spinWindow, and reports
// whether it did. Every miss yields the processor, so a spinner never holds
// up a runnable goroutine: the helper it waits for, or the caller it serves.
func spin(v *atomic.Int32, want int32) bool {
	start := time.Now()
	for v.Load() != want {
		if time.Since(start) > spinWindow {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// A job is what a worker runs: a fork's share of chunks or a Task's fn. It
// must report its own completion to whoever joins it.
type job interface{ run() }

// worker is one persistent goroutine that runs the jobs posted to it, one at
// a time. Only whoever acquired it posts to it, and only while it is idle.
type worker struct {
	state atomic.Int32  // idle, parked or posted
	job   job           // written by post before state turns posted
	wake  chan struct{} // capacity 1: post's one wake-up send never blocks
}

const (
	idle   int32 = iota // no job; the worker is spinning
	parked              // no job; the worker sleeps on wake
	posted              // a job waits in the mailbox
)

// newWorker grows the pool by one goroutine. It is the only place a worker
// goroutine is started; forks post to workers that already run. Workers live
// as long as the process: an idle one is a parked goroutine.
func newWorker() *worker {
	w := &worker{wake: make(chan struct{}, 1)}
	go w.loop()
	return w
}

// post hands j to w.
func (w *worker) post(j job) {
	w.job = j
	if w.state.Swap(posted) == parked {
		w.wake <- struct{}{}
	}
}

func (w *worker) loop() {
	// A job that calls runtime.Goexit (a test's FailNow on a worker) ends this
	// goroutine once the job has reported done; the worker goes on in a new one.
	defer func() { go w.loop() }()
	for {
		// Either the post lands while spinning, or the worker parks first and
		// post's Swap sees parked and wakes it; a failed CAS means posted.
		if !spin(&w.state, posted) && w.state.CompareAndSwap(idle, parked) {
			<-w.wake
		}
		j := w.job
		w.job = nil
		w.state.Store(idle)
		j.run()
	}
}

// join is the completion side of a fork: how many of the helpers posted to
// are still running, and the first panic any of them recovered.
type join struct {
	left     atomic.Int32  // helpers still running, plus joinParked while the joiner sleeps
	wake     chan struct{} // capacity 1: the last helper's wake-up send never blocks
	panicked atomic.Bool
	pv       any // first recovered panic value, set once panicked turns true
}

const joinParked = 1 << 30

// done reports one helper finished. It is the helper's last touch of j.
func (j *join) done() {
	if j.left.Add(-1) == joinParked {
		j.wake <- struct{}{}
	}
}

// fail records r if it is the first panic of the fork.
func (j *join) fail(r any) {
	if j.panicked.CompareAndSwap(false, true) {
		j.pv = r
	}
}

// wait returns once every helper is done, with the first panic recorded, and
// leaves j ready for the next fork.
func (j *join) wait() (pv any, panicked bool) {
	// Either the count reaches zero while spinning, or the joiner marks itself
	// parked and the helper that brings the count to zero sees the mark and
	// wakes it; if the count was already zero, nobody sends.
	if !spin(&j.left, 0) && j.left.Add(joinParked) != joinParked {
		<-j.wake
	}
	j.left.Store(0)
	pv, panicked = j.pv, j.panicked.Load()
	j.pv = nil
	j.panicked.Store(false)
	return pv, panicked
}
