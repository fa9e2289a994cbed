package par

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestForChunksCoversAllItems(t *testing.T) {
	for _, tc := range []struct{ n, chunk, workers int }{
		{100, 7, 4},
		{100, 7, 0},  // auto
		{100, 7, 1},  // inline
		{3, 10, 8},   // n < chunk, workers > chunks
		{5, 1, 100},  // workers > n
		{1, 1, 8},    // single item
		{64, 64, 2},  // exactly one chunk
		{65, 64, 2},  // one full + one partial chunk
		{0, 4, 4},    // empty
		{-3, 4, 4},   // negative
		{10, 0, 4},   // chunk < 1 defaults to 1
		{10, -2, -5}, // everything degenerate
	} {
		n := tc.n
		if n < 0 {
			n = 0
		}
		seen := make([]atomic.Int32, n+1)
		ForChunks(tc.n, tc.chunk, tc.workers, func(lo, hi int) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("ForChunks(%v): bad chunk [%d, %d)", tc, lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
		})
		for i := 0; i < n; i++ {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("ForChunks(%v): item %d visited %d times", tc, i, got)
			}
		}
	}
}

func TestForChunksChunkBoundariesIgnoreWorkers(t *testing.T) {
	// The same (n, chunk) must yield the same chunk set for any worker count.
	collect := func(workers int) map[[2]int]bool {
		var mu atomic.Pointer[map[[2]int]bool]
		m := make(map[[2]int]bool)
		mu.Store(&m)
		var lock atomic.Int32
		ForChunks(103, 8, workers, func(lo, hi int) {
			for !lock.CompareAndSwap(0, 1) {
			}
			(*mu.Load())[[2]int{lo, hi}] = true
			lock.Store(0)
		})
		return m
	}
	a, b := collect(1), collect(7)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("chunk %v missing at workers=7", k)
		}
	}
}

func TestForChunksPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 8} {
		func() {
			defer func() {
				r := recover()
				if r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			ForChunks(64, 1, workers, func(lo, hi int) {
				if lo == 13 {
					panic("boom")
				}
			})
			t.Fatalf("workers=%d: ForChunks returned without panicking", workers)
		}()
	}
}

func TestForChunksPanicInCallerWorker(t *testing.T) {
	// Chunk 0 is always claimed first by the caller when workers run behind;
	// panic on every chunk so whichever executor runs first trips it.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ForChunks(8, 1, 4, func(lo, hi int) { panic(lo) })
}

func TestOrderedSumMatchesSequential(t *testing.T) {
	// Values spanning many magnitudes make float addition order-sensitive;
	// OrderedSum must reproduce the sequential fold bit-for-bit.
	vals := make([]float64, 1000)
	x := uint64(88172645463325252)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = math.Ldexp(float64(x>>11), int(x%64)-32)
	}
	want := 0.0
	for _, v := range vals {
		want += v
	}
	for _, workers := range []int{0, 1, 3, 16} {
		got := OrderedSum(len(vals), 17, workers, func(i int) float64 { return vals[i] })
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("workers=%d: sum %x, want %x", workers, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestOrderedCount(t *testing.T) {
	for _, workers := range []int{0, 1, 5} {
		got := OrderedCount(1000, 13, workers, func(i int) bool { return i%3 == 0 })
		if got != 334 {
			t.Fatalf("workers=%d: count %d, want 334", workers, got)
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(5) != 5 {
		t.Fatal("explicit count must pass through")
	}
	if Workers(0) < 1 || Workers(-2) < 1 {
		t.Fatal("auto must resolve to >= 1")
	}
}

func TestBudgetRoundTrips(t *testing.T) {
	// Draining and refilling the budget must leave it at capacity: run many
	// auto fork-joins and verify the token count is restored.
	before := len(extraTokens)
	for i := 0; i < 50; i++ {
		ForChunks(256, 4, 0, func(lo, hi int) {})
	}
	if after := len(extraTokens); after != before {
		t.Fatalf("budget leaked: %d tokens before, %d after", before, after)
	}
}

func TestForChunksEdgeTable(t *testing.T) {
	// Pins the n < workers and n == 0 edges: fn runs exactly once per chunk,
	// never for empty input, and concurrency never exceeds min(workers,
	// chunks) — i.e. no executor exists without a chunk to claim.
	for _, tc := range []struct {
		n, chunk, workers int
		wantChunks        int
	}{
		{0, 4, 8, 0},  // empty input: no chunks, no goroutines
		{-1, 4, 8, 0}, // negative input behaves as empty
		{1, 4, 8, 1},  // one partial chunk, seven idle workers requested
		{2, 1, 64, 2}, // n < workers: at most 2 executors may run
		{3, 2, 8, 2},  // chunks < workers
		{7, 3, 2, 3},  // workers < chunks
		{5, 5, 5, 1},  // single exact chunk runs inline
		{6, 4, 1, 2},  // inline multi-chunk
	} {
		var calls, inFlight, highWater atomic.Int32
		ForChunks(tc.n, tc.chunk, tc.workers, func(lo, hi int) {
			cur := inFlight.Add(1)
			for {
				hw := highWater.Load()
				if cur <= hw || highWater.CompareAndSwap(hw, cur) {
					break
				}
			}
			calls.Add(1)
			inFlight.Add(-1)
		})
		if got := int(calls.Load()); got != tc.wantChunks {
			t.Errorf("ForChunks(%+v): fn called %d times, want %d", tc, got, tc.wantChunks)
		}
		maxExec := tc.workers
		if tc.workers <= 0 {
			maxExec = int(^uint(0) >> 1)
		}
		if tc.wantChunks < maxExec {
			maxExec = tc.wantChunks
		}
		if hw := int(highWater.Load()); hw > maxExec {
			t.Errorf("ForChunks(%+v): %d concurrent executions, want <= %d", tc, hw, maxExec)
		}
	}
}

func TestTaskRunsBesideCallerAndJoins(t *testing.T) {
	var task Task
	task.Wait() // no live helper: a no-op, safe to defer

	if task.Start(1, func() { t.Error("workers=1 must not run fn") }) {
		t.Fatal("workers=1 launched a helper")
	}
	task.Wait()

	// An explicit count always launches. The helper waits for the caller, so
	// it can only finish if it truly runs beside it; Wait is the join.
	for round := 0; round < 3; round++ { // the slot is reusable
		release := make(chan struct{})
		done := false
		if !task.Start(2, func() { <-release; done = true }) {
			t.Fatal("workers=2 did not launch a helper")
		}
		close(release)
		task.Wait()
		if !done {
			t.Fatal("Wait returned before the helper finished")
		}
	}
}

func TestTaskAutoHoldsOneBudgetToken(t *testing.T) {
	// Drain the budget: auto must decline rather than block or oversubscribe.
	held := acquireExtra(cap(extraTokens))
	var task Task
	if task.Start(0, func() { t.Error("fn ran without a token") }) {
		t.Fatal("auto launched with the budget drained")
	}
	releaseExtra(held)
	if cap(extraTokens) == 0 {
		return // GOMAXPROCS 1: auto never launches
	}
	if !task.Start(0, func() {}) {
		t.Fatal("auto declined with the budget full")
	}
	if got := len(extraTokens); got != cap(extraTokens)-1 {
		t.Fatalf("helper holds %d tokens, want 1", cap(extraTokens)-got)
	}
	task.Wait()
	if len(extraTokens) != cap(extraTokens) {
		t.Fatal("Wait did not return the token")
	}
}

func TestTaskPanicPropagates(t *testing.T) {
	var task Task
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want \"boom\"", r)
			}
		}()
		task.Start(2, func() { panic("boom") })
		task.Wait()
		t.Fatal("Wait returned without panicking")
	}()
	// The slot is clean again: no stale panic, no live helper.
	ran := false
	task.Start(2, func() { ran = true })
	task.Wait()
	if !ran {
		t.Fatal("Task unusable after a panic")
	}
}
