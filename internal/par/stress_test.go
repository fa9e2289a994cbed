package par

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// goid is the current goroutine's ID, parsed from its stack header. It tells
// the caller of a fork apart from the workers running beside it.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// checkCover runs ForChunks and fails unless every item is visited once.
func checkCover(t *testing.T, n, chunk, workers int, inner func()) {
	seen := make([]atomic.Int32, n)
	ForChunks(n, chunk, workers, func(lo, hi int) {
		if inner != nil {
			inner()
		}
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
	})
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Errorf("ForChunks(%d, %d, %d): item %d visited %d times", n, chunk, workers, i, got)
			return
		}
	}
}

// panicOn runs a two-chunk fork on two executors, one chunk each (each chunk
// waits until both are claimed), and panics in the chunk that runs on the
// caller (onCaller) or on the worker. The panic must come back to the caller
// with its value.
func panicOn(t *testing.T, workers int, onCaller bool) {
	want := fmt.Sprintf("boom caller=%v", onCaller)
	caller := goid()
	var claimed atomic.Int32
	defer func() {
		if r := recover(); r != want {
			t.Errorf("workers=%d: recovered %v, want %q", workers, r, want)
		}
	}()
	ForChunks(2, 1, workers, func(lo, hi int) {
		claimed.Add(1)
		for claimed.Load() < 2 {
			runtime.Gosched()
		}
		if (goid() == caller) == onCaller {
			panic(want)
		}
	})
	t.Errorf("workers=%d: ForChunks returned without panicking", workers)
}

// TestPoolStress drives the worker pool from several goroutines at once:
// auto and explicit fork-joins, forks nested inside workers, Tasks (some
// forking themselves), panics on a worker and on the caller, and a budget
// drained and refilled while the others run. Every item must be covered
// once, every panic re-raised with its value, and every budget worker back
// in the budget at the end.
func TestPoolStress(t *testing.T) {
	const goroutines, iters = 4, 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var task Task
			for i := 0; i < iters; i++ {
				workers := []int{0, 2, 3, -1}[(g+i)%4]
				switch i % 6 {
				case 0:
					checkCover(t, 97, 5, workers, nil)
				case 1: // a fork nested inside every chunk, auto and explicit
					checkCover(t, 12, 3, workers, func() {
						checkCover(t, 16, 2, 0, nil)
						checkCover(t, 9, 4, 2, nil)
					})
				case 2:
					ran := false
					if task.Start(workers, func() {
						checkCover(t, 40, 3, workers, nil)
						ran = true
					}) {
						checkCover(t, 33, 4, workers, nil)
						task.Wait()
						if !ran {
							t.Error("Task.Wait returned before its helper ran")
						}
					}
				case 3:
					panicOn(t, 2, i%12 == 3)
				case 4:
					func() {
						defer func() {
							if r := recover(); r != "task boom" {
								t.Errorf("Task: recovered %v, want \"task boom\"", r)
							}
						}()
						task.Start(2, func() { panic("task boom") })
						task.Wait()
						t.Error("Task.Wait returned without panicking")
					}()
				case 5:
					if g == 0 { // one goroutine drains the budget and refills it
						held := drainBudget()
						checkCover(t, 50, 1, 0, nil)
						refillBudget(held)
					} else {
						checkCover(t, 64, 1, workers, nil)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(extraTokens); got != cap(extraTokens) {
		t.Fatalf("budget holds %d of its %d workers after the run", got, cap(extraTokens))
	}
}

// TestGoexitKeepsPool has every executor of a fork leave by runtime.Goexit,
// as a test's FailNow would: the caller's deferred join must still return
// its workers, and the workers that exited must go on taking jobs.
func TestGoexitKeepsPool(t *testing.T) {
	for _, workers := range []int{0, 2} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			ForChunks(8, 1, workers, func(lo, hi int) { runtime.Goexit() })
		}()
		<-done
		checkCover(t, 64, 1, workers, nil)
	}
	if got := len(extraTokens); got != cap(extraTokens) {
		t.Fatalf("budget holds %d of its %d workers after Goexit", got, cap(extraTokens))
	}
}
