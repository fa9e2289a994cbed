package qlearn

import (
	"math/rand"
	"testing"
)

// TestWarmAggregationReplayAllocatesNoValueArrays stages the hand-over from
// learning to aggregation that the pool sees in a pre-training. First, pairs
// of few-cell learning-phase tables merge and fill every free list with their
// small arrays. Then n tables over one common cell set gossip in the
// mid-convergence regime: each replay perturbs one value per table (a
// copy-on-write detach where the backing is shared) and runs a fixed schedule
// of exchanges, which build union backings and release the ones they replace.
// With fewer tables than a free list holds, no more backings are live at once
// than the pool can supply, so once a replay has run every array a later one
// needs was released by an earlier exchange — and is still pooled only if the
// full lists gave up their small arrays for it. The cell set stays under
// shareMinCells, so every backing keeps a private cell array that returns to
// the pool: a warmed replay must not allocate at all.
func TestWarmAggregationReplayAllocatesNoValueArrays(t *testing.T) {
	backingPool.mu.Lock()
	backingPool.nodes, backingPool.idxs = nil, nil
	backingPool.vals = nil
	backingPool.mu.Unlock()
	rng := rand.New(rand.NewSource(5))

	var learned []*Table
	for i := 0; i < 8*poolMax; i++ {
		tb := New(0.5, 0.8)
		tb.Set(State(rng.Intn(15)), Action(rng.Intn(15)), rng.NormFloat64())
		learned = append(learned, tb)
		if i%2 == 1 {
			Merge(learned[i-1], tb)
		}
	}
	const n, cells, rounds = 12, 225, 5
	backingPool.mu.Lock()
	full := len(backingPool.idxs) == poolMax
	for _, a := range backingPool.idxs {
		full = full && cap(a) < cells
	}
	backingPool.mu.Unlock()
	if !full {
		t.Fatal("the learning-phase merges did not fill the pool with small arrays")
	}

	ts := make([]*Table, n)
	for i := range ts {
		ts[i] = New(0.5, 0.8)
		for c := 0; c < cells; c++ {
			ts[i].Set(State(c/15), Action(c%15), rng.NormFloat64())
		}
	}
	var schedule [][2]int
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			schedule = append(schedule, [2]int{i, j})
		}
	}
	replay := func() {
		for _, tb := range ts {
			c := rng.Intn(cells)
			tb.Set(State(c/15), Action(c%15), rng.NormFloat64())
		}
		for _, p := range schedule {
			Merge(ts[p[0]], ts[p[1]])
		}
	}
	for i := 0; i < 3; i++ {
		replay()
	}
	if allocs := testing.AllocsPerRun(20, replay); allocs != 0 {
		t.Fatalf("a warmed replay (%d detaches, %d merges) allocates %v objects", n, len(schedule), allocs)
	}
}
