package sim

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/glap-sim/glap/internal/par"
)

// countingProto records how many times Round ran per node.
type countingProto struct {
	name   string
	rounds map[int][]int // node -> rounds seen
	setups int
}

func newCountingProto(name string) *countingProto {
	return &countingProto{name: name, rounds: make(map[int][]int)}
}

func (p *countingProto) Name() string { return p.name }
func (p *countingProto) Setup(e *Engine, n *Node) any {
	p.setups++
	return &struct{ v int }{}
}
func (p *countingProto) Round(e *Engine, n *Node, r int) {
	p.rounds[n.ID] = append(p.rounds[n.ID], r)
}

func TestEngineRunsAllNodesEveryRound(t *testing.T) {
	e := NewEngine(5, 1)
	p := newCountingProto("p")
	e.Register(p)
	e.RunRounds(3)
	if p.setups != 5 {
		t.Fatalf("setups = %d, want 5", p.setups)
	}
	for id := 0; id < 5; id++ {
		if len(p.rounds[id]) != 3 {
			t.Fatalf("node %d ran %d rounds, want 3", id, len(p.rounds[id]))
		}
	}
}

func TestEngineWindowAndPeriod(t *testing.T) {
	e := NewEngine(2, 1)
	p := newCountingProto("p")
	e.RegisterWindow(p, 2, 3, 7) // rounds 3, 5, 7
	e.RunRounds(10)
	got := p.rounds[0]
	want := []int{3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("rounds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rounds %v, want %v", got, want)
		}
	}
}

func TestEngineSkipsDownNodes(t *testing.T) {
	e := NewEngine(3, 1)
	p := newCountingProto("p")
	e.Register(p)
	e.SetUp(e.Node(1), false)
	e.RunRounds(4)
	if len(p.rounds[1]) != 0 {
		t.Fatalf("down node ran %d rounds", len(p.rounds[1]))
	}
	if len(p.rounds[0]) != 4 || len(p.rounds[2]) != 4 {
		t.Fatal("up nodes should run every round")
	}
	if e.UpCount() != 2 {
		t.Fatalf("UpCount = %d", e.UpCount())
	}
}

func TestEngineHookOrdering(t *testing.T) {
	e := NewEngine(1, 1)
	var order []string
	e.BeforeRound(func(e *Engine, r int) { order = append(order, fmt.Sprintf("pre%d", r)) })
	p := &funcProto{name: "p", fn: func(e *Engine, n *Node, r int) {
		order = append(order, fmt.Sprintf("round%d", r))
	}}
	e.Register(p)
	e.Observe(func(e *Engine, r int) { order = append(order, fmt.Sprintf("post%d", r)) })
	e.RunRounds(2)
	want := []string{"pre0", "round0", "post0", "pre1", "round1", "post1"}
	if len(order) != len(want) {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

type funcProto struct {
	name  string
	fn    func(e *Engine, n *Node, r int)
	setup func(e *Engine, n *Node) any
}

func (p *funcProto) Name() string { return p.name }
func (p *funcProto) Setup(e *Engine, n *Node) any {
	if p.setup != nil {
		return p.setup(e, n)
	}
	return struct{}{}
}
func (p *funcProto) Round(e *Engine, n *Node, r int) { p.fn(e, n, r) }

func TestEngineStateAccess(t *testing.T) {
	e := NewEngine(2, 1)
	p := &funcProto{
		name:  "stateful",
		setup: func(e *Engine, n *Node) any { return &[]int{n.ID * 10} },
		fn:    func(e *Engine, n *Node, r int) {},
	}
	e.Register(p)
	e.RunRounds(1)
	got := e.State("stateful", e.Node(1)).(*[]int)
	if (*got)[0] != 10 {
		t.Fatalf("state = %v", *got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown protocol")
		}
	}()
	e.State("nope", e.Node(0))
}

func TestEngineDuplicateProtocolPanics(t *testing.T) {
	e := NewEngine(1, 1)
	e.Register(newCountingProto("dup"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Register(newCountingProto("dup"))
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine(10, 77)
		var visits []int
		e.Register(&funcProto{name: "v", fn: func(e *Engine, n *Node, r int) {
			visits = append(visits, n.ID)
		}})
		e.RunRounds(5)
		return visits
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEngineShufflesNodeOrder(t *testing.T) {
	e := NewEngine(20, 5)
	var firstRound, secondRound []int
	e.Register(&funcProto{name: "v", fn: func(e *Engine, n *Node, r int) {
		if r == 0 {
			firstRound = append(firstRound, n.ID)
		} else if r == 1 {
			secondRound = append(secondRound, n.ID)
		}
	}})
	e.RunRounds(2)
	same := true
	for i := range firstRound {
		if firstRound[i] != secondRound[i] {
			same = false
		}
	}
	if same {
		t.Fatal("node order identical across rounds; shuffle not applied")
	}
}

func TestEngineEvents(t *testing.T) {
	e := NewEngine(1, 1)
	e.Register(newCountingProto("p"))
	var fired []int64
	e.At(150, 0, func() { fired = append(fired, e.Now()) })
	e.At(250, 0, func() { fired = append(fired, e.Now()) })
	e.RunRounds(3) // rounds at t=0,120,240; horizon 360
	if len(fired) != 2 || fired[0] != 150 || fired[1] != 250 {
		t.Fatalf("fired %v", fired)
	}
}

func TestEngineAfterAndCancel(t *testing.T) {
	e := NewEngine(1, 1)
	e.Register(newCountingProto("p"))
	fired := 0
	ev := e.After(100, 0, func() { fired++ })
	e.After(200, 0, func() { fired++ })
	e.Cancel(ev)
	e.RunRounds(3)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1, 1)
	rounds := 0
	e.Register(&funcProto{name: "p", fn: func(e *Engine, n *Node, r int) {
		rounds++
		if r == 2 {
			e.Stop()
		}
	}})
	e.RunRounds(10)
	if rounds != 3 {
		t.Fatalf("ran %d rounds, want 3", rounds)
	}
}

func TestEngineRunEvents(t *testing.T) {
	e := NewEngine(1, 1)
	var order []string
	e.At(10, 0, func() { order = append(order, "a") })
	e.At(5, 0, func() {
		order = append(order, "b")
		e.After(2, 0, func() { order = append(order, "c") })
	})
	e.RunEvents(-1)
	want := []string{"b", "c", "a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v", order)
		}
	}
}

func TestEngineRunEventsHorizon(t *testing.T) {
	e := NewEngine(1, 1)
	fired := 0
	e.At(5, 0, func() { fired++ })
	e.At(50, 0, func() { fired++ })
	e.RunEvents(10)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestRegisterPanicsOnBadPeriod(t *testing.T) {
	e := NewEngine(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.RegisterEvery(newCountingProto("p"), 0)
}

// parallelProto is a ParallelRound-conforming protocol: each Round writes
// only the active node's own counter slot.
type parallelProto struct {
	name   string
	visits []atomic.Int64 // indexed by node ID
	par    bool
}

func (p *parallelProto) Name() string { return p.name }
func (p *parallelProto) Setup(e *Engine, n *Node) any {
	if p.visits == nil {
		p.visits = make([]atomic.Int64, e.N())
	}
	return nil
}
func (p *parallelProto) Round(e *Engine, n *Node, r int) { p.visits[n.ID].Add(1) }
func (p *parallelProto) Parallelizable() bool            { return p.par }

func TestParallelRoundVisitsEveryUpNodeOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 8} {
		e := NewEngine(100, 7)
		e.Workers = workers
		p := &parallelProto{name: "pp", par: true}
		e.Register(p)
		e.SetUp(e.Node(13), false)
		e.SetUp(e.Node(77), false)
		e.RunRounds(4)
		for id := range p.visits {
			want := int64(4)
			if id == 13 || id == 77 {
				want = 0
			}
			if got := p.visits[id].Load(); got != want {
				t.Fatalf("workers=%d: node %d visited %d times, want %d", workers, id, got, want)
			}
		}
	}
}

func TestParallelRoundFalseRunsSequential(t *testing.T) {
	// Parallelizable() == false must take the plain sequential path even when
	// Workers > 1; the per-node counts still come out right.
	e := NewEngine(20, 7)
	e.Workers = 8
	p := &parallelProto{name: "pp", par: false}
	e.Register(p)
	e.RunRounds(2)
	for id := range p.visits {
		if got := p.visits[id].Load(); got != 2 {
			t.Fatalf("node %d visited %d times, want 2", id, got)
		}
	}
}

// panicProto panics on one specific node's round.
type panicProto struct{ par bool }

func (p *panicProto) Name() string                 { return "panicer" }
func (p *panicProto) Setup(e *Engine, n *Node) any { return nil }
func (p *panicProto) Round(e *Engine, n *Node, r int) {
	if n.ID == 9 {
		panic("round blew up")
	}
}
func (p *panicProto) Parallelizable() bool { return p.par }

func TestParallelRoundPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 8} {
		func() {
			defer func() {
				if r := recover(); r != "round blew up" {
					t.Fatalf("workers=%d: recovered %v", workers, r)
				}
			}()
			e := NewEngine(40, 7)
			e.Workers = workers
			e.Register(&panicProto{par: true})
			e.RunRounds(1)
			t.Fatalf("workers=%d: RunRounds returned without panicking", workers)
		}()
	}
}

func TestUpCountTracksScan(t *testing.T) {
	e := NewEngine(50, 3)
	scan := func() int {
		c := 0
		for _, n := range e.Nodes() {
			if n.Up() {
				c++
			}
		}
		return c
	}
	rng := NewRNG(99)
	for i := 0; i < 500; i++ {
		n := e.Node(rng.Intn(50))
		e.SetUp(n, rng.Bool())
		if got, want := e.UpCount(), scan(); got != want {
			t.Fatalf("step %d: UpCount() = %d, scan = %d", i, got, want)
		}
	}
	// Redundant transitions must not skew the counter.
	n := e.Node(0)
	e.SetUp(n, true)
	e.SetUp(n, true)
	e.SetUp(n, true)
	if got, want := e.UpCount(), scan(); got != want {
		t.Fatalf("after redundant SetUp: UpCount() = %d, scan = %d", got, want)
	}
}

func TestBoundNodeRNGPerNodeStreamsStableAcrossEngines(t *testing.T) {
	var b BoundNodeRNG
	e1 := NewEngine(8, 42)
	// Per-node streams are deterministic functions of (seed, node) alone.
	first := make([]uint64, 8)
	for id := 0; id < 8; id++ {
		first[id] = b.For(e1, id, 0xabc).Uint64()
	}
	for id := 0; id < 8; id++ {
		for other := 0; other < 8; other++ {
			if id != other && first[id] == first[other] {
				t.Fatalf("nodes %d and %d share stream output", id, other)
			}
		}
	}
	// Rebinding to a new engine with the same seed reproduces the streams.
	var b2 BoundNodeRNG
	e2 := NewEngine(8, 42)
	for id := 0; id < 8; id++ {
		if got := b2.For(e2, id, 0xabc).Uint64(); got != first[id] {
			t.Fatalf("node %d: fresh engine stream %#x, want %#x", id, got, first[id])
		}
	}
	// Rebinding to a different-seed engine yields different streams.
	e3 := NewEngine(8, 43)
	if b.For(e3, 0, 0xabc).Uint64() == first[0] {
		t.Fatal("different engine seed must change the node stream")
	}
}

// laneProto is a toy LaneRound: node state is one non-commutative digest per
// lane, an exchange folds each endpoint's digest into the other's, and the
// peer draw reads only the protocol's own stream. Round is the per-node
// reference: draw, then every lane of that one pair.
const toyLanes = 3

type laneState [toyLanes]uint64

type laneProto struct {
	lanes int
	rng   BoundRNG
	log   [][]par.Pair // per lane: the pairs RunLane saw, in the order it saw them
}

func (p *laneProto) Name() string { return "lanes" }
func (p *laneProto) Setup(e *Engine, n *Node) any {
	id := uint64(n.ID)
	return &laneState{id, id, id}
}
func (p *laneProto) Lanes() int { return p.lanes }

func (p *laneProto) DrawPair(e *Engine, n *Node, r int) int {
	if r%4 == 3 {
		return -1 // a round with no exchange at all
	}
	peer := p.rng.For(e, 0x1a9e).Intn(e.N())
	if peer == n.ID || !e.Node(peer).Up() {
		return -1
	}
	return peer
}

func (p *laneProto) exchange(e *Engine, a, b int32, lane int) {
	x, y := e.State("lanes", e.Node(int(a))).(*laneState), e.State("lanes", e.Node(int(b))).(*laneState)
	m := (x[lane]*31 + y[lane]) ^ uint64(lane)
	x[lane], y[lane] = m, m*7
}

func (p *laneProto) Round(e *Engine, n *Node, r int) {
	if peer := p.DrawPair(e, n, r); peer >= 0 {
		for lane := 0; lane < toyLanes; lane++ {
			p.exchange(e, int32(n.ID), int32(peer), lane)
		}
	}
}

func (p *laneProto) RunLane(e *Engine, lane int, pairs []par.Pair, r int) {
	p.log[lane] = append(p.log[lane], pairs...)
	for _, pr := range pairs {
		p.exchange(e, pr.A, pr.B, lane)
	}
}

// TestLaneRoundMatchesPerNodeRound pins the LaneRound contract on the engine
// side: at every worker count the lane pass leaves the state the per-node
// Round path leaves (rounds that draw no pair included), every lane sees
// every drawn pair in draw order, and a protocol reporting zero lanes stays on
// Round.
func TestLaneRoundMatchesPerNodeRound(t *testing.T) {
	const nodes, rounds = 23, 12
	run := func(lanes, workers int) (*Engine, *laneProto) {
		e := NewEngine(nodes, 9)
		e.Workers = workers
		e.SetUp(e.Node(4), false)
		p := &laneProto{lanes: lanes, log: make([][]par.Pair, toyLanes)}
		e.Register(p)
		e.RunRounds(rounds)
		return e, p
	}
	ref, refP := run(0, 1)
	if len(refP.log[0]) != 0 {
		t.Fatal("Lanes() == 0 must keep the protocol on the per-node Round path")
	}
	for _, workers := range []int{1, 2, 8} {
		e, p := run(toyLanes, workers)
		for id := 0; id < nodes; id++ {
			got, want := *e.State("lanes", e.Node(id)).(*laneState), *ref.State("lanes", ref.Node(id)).(*laneState)
			if got != want {
				t.Fatalf("workers=%d node %d: lane pass %v, per-node Round %v", workers, id, got, want)
			}
		}
		if len(p.log[0]) == 0 {
			t.Fatalf("workers=%d: no pair reached RunLane", workers)
		}
		for lane := 1; lane < toyLanes; lane++ {
			if !slices.Equal(p.log[lane], p.log[0]) {
				t.Fatalf("workers=%d: lane %d saw a different pair sequence than lane 0", workers, lane)
			}
		}
		a, b := *p.rng.For(e, 0x1a9e), *refP.rng.For(ref, 0x1a9e)
		if a.Uint64() != b.Uint64() {
			t.Fatalf("workers=%d: lane pass left the draw stream at a different position", workers)
		}
	}
}
