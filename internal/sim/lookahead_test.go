package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/glap-sim/glap/internal/par"
)

// stubLanes is a LaneRound protocol that draws no pair: present only so that
// the engine sees a lane pass due.
type stubLanes struct{}

func (stubLanes) Name() string                          { return "stub-lanes" }
func (stubLanes) Setup(*Engine, *Node) any              { return nil }
func (stubLanes) Round(*Engine, *Node, int)             {}
func (stubLanes) Lanes() int                            { return 2 }
func (stubLanes) DrawPair(*Engine, *Node, int) int      { return -1 }
func (stubLanes) RunLane(*Engine, int, []par.Pair, int) {}

func nopRound(*Engine, *Node, int) {}

func seqProto(fn func(e *Engine, n *Node, r int)) *funcProto {
	return &funcProto{name: "seq", fn: fn}
}

// recoverValue runs fn and returns what it panicked with, nil if it returned.
func recoverValue(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func lookAheadEngine(workers int, fn func(next int)) *Engine {
	e := NewEngine(8, 3)
	e.Workers = workers
	e.LookAhead(fn)
	return e
}

// TestLookAheadSkipsParallelRoundAndLaneRounds pins the pipeline's schedule
// with stub protocols: the hook runs exactly once for each next round that
// follows a round of sequential passes, never for round 0 or for `rounds`,
// never in a round where a ParallelRound or LaneRound pass is due (the helper
// would hold the budget's only token when their fork-join asks for it) or
// where no pass is due at all, it starts
// after its own round's BeforeRound hooks and is joined before the next
// round's. The hook and the hooks share plain variables on purpose: under
// -race a missing join is a reported race, not a flaky assertion.
func TestLookAheadSkipsParallelRoundAndLaneRounds(t *testing.T) {
	const rounds = 12
	var (
		calls    []int
		lastPre  = -1
		finished [rounds + 1]bool
	)
	e := lookAheadEngine(2, func(next int) {
		if lastPre != next-1 {
			t.Errorf("hook for round %d started with BeforeRound(%d) the last to fire", next, lastPre)
		}
		calls = append(calls, next)
		for i := 0; i < 20; i++ {
			runtime.Gosched() // linger, so that a missing join shows
		}
		finished[next] = true
	})
	e.BeforeRound(func(e *Engine, r int) {
		if slices.Contains(calls, r) && !finished[r] {
			t.Errorf("BeforeRound(%d) fired before the hook for round %d was joined", r, r)
		}
		lastPre = r
	})
	e.Register(seqProto(nopRound))
	e.RegisterWindow(&parallelProto{name: "pp", par: true}, 1, 3, 5)
	e.RegisterWindow(stubLanes{}, 1, 8, 9)
	e.RunRounds(rounds)
	// Next rounds that follow a sequential round: rounds 3–5 and 8–9 are not.
	if want := []int{1, 2, 3, 7, 8, 11}; !slices.Equal(calls, want) {
		t.Fatalf("hook ran for rounds %v, want %v", calls, want)
	}

	// A ParallelRound protocol that declines (Parallelizable false) and a
	// LaneRound one without lanes are sequential passes.
	calls, lastPre = nil, -1
	e = lookAheadEngine(2, func(next int) { calls = append(calls, next) })
	e.BeforeRound(func(e *Engine, r int) { lastPre = r })
	e.Register(&parallelProto{name: "pp", par: false})
	e.RunRounds(3)
	if want := []int{1, 2}; !slices.Equal(calls, want) {
		t.Fatalf("declined ParallelRound: hook ran for rounds %v, want %v", calls, want)
	}

	// A round with no pass due has nothing to run the hook beside.
	calls = nil
	e = lookAheadEngine(2, func(next int) { calls = append(calls, next) })
	e.RegisterWindow(seqProto(nopRound), 1, 2, 3)
	e.RunRounds(6)
	if want := []int{3, 4}; !slices.Equal(calls, want) {
		t.Fatalf("windowed protocol: hook ran for rounds %v, want %v", calls, want)
	}

	// Workers 1 is the no-free-core path: no goroutine, no call, same run.
	e = lookAheadEngine(1, func(next int) { t.Errorf("Workers=1 ran the hook for round %d", next) })
	e.Register(seqProto(nopRound))
	e.RunRounds(rounds)
}

// TestLookAheadPanicSurfacesInRunRounds: a panic on the helper goroutine must
// come out of RunRounds on the caller with its original value — on any other
// goroutine it would kill the process — at the join, before the round it was
// fetching for starts.
func TestLookAheadPanicSurfacesInRunRounds(t *testing.T) {
	lastPre := -1
	e := lookAheadEngine(2, func(next int) {
		if next == 3 {
			panic("ahead blew up")
		}
	})
	e.BeforeRound(func(e *Engine, r int) { lastPre = r })
	e.Register(seqProto(nopRound))
	if v := recoverValue(func() { e.RunRounds(10) }); v != "ahead blew up" {
		t.Fatalf("recovered %v, want \"ahead blew up\"", v)
	}
	if lastPre != 2 {
		t.Fatalf("BeforeRound(%d) fired after the hook for round 3 panicked", lastPre)
	}
}

// TestLookAheadJoinedOnEveryExit: no helper outlives RunRounds, whichever way
// it returns. The hook outlasts its round by far, so an exit path without a
// join returns with started != finished (and, under -race, a reported race on
// the two plain counters).
func TestLookAheadJoinedOnEveryExit(t *testing.T) {
	for name, leave := range map[string]func(e *Engine){
		"last round": func(e *Engine) {},
		"Stop":       func(e *Engine) { e.Stop() },
		"panic":      func(e *Engine) { panic("round blew up") },
	} {
		started, finished := 0, 0
		e := lookAheadEngine(2, func(next int) {
			started++
			time.Sleep(5 * time.Millisecond)
			finished++
		})
		e.Register(seqProto(func(e *Engine, n *Node, r int) {
			if r == 2 && n.ID == 0 {
				leave(e)
			}
		}))
		v := recoverValue(func() { e.RunRounds(4) })
		if name == "panic" && v != "round blew up" {
			t.Fatalf("%s: recovered %v", name, v)
		}
		if started != 3 || finished != started {
			t.Fatalf("%s: RunRounds returned with %d hooks started, %d finished; want 3 and 3", name, started, finished)
		}
	}
}

// TestLookAheadRoundAllocs pins what the pipeline adds to a round: the one
// closure that carries the next round's number to the helper.
func TestLookAheadRoundAllocs(t *testing.T) {
	perRound := func(workers int) float64 {
		e := lookAheadEngine(workers, func(int) {})
		e.Register(seqProto(nopRound))
		e.RunRounds(2) // setup, and the helper slot's channel
		run := func(rounds int) float64 {
			return testing.AllocsPerRun(5, func() { e.RunRounds(rounds) })
		}
		return (run(201) - run(1)) / 200
	}
	if base, piped := perRound(1), perRound(2); piped-base > 1.05 {
		t.Fatalf("pipelined round allocates %.2f more than a sequential one, want <= 1", piped-base)
	}
}
