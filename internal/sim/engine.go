// Package sim is a deterministic simulation kernel in the style of PeerSim:
// an event-driven scheduler with a cycle (round) driver layered on top,
// per-node protocol instances, observer hooks, and a parallel replication
// runner. All randomness flows through splittable RNG streams so that a
// (seed, replication) pair fully determines a run.
package sim

import (
	"fmt"

	"github.com/glap-sim/glap/internal/par"
)

// Node is one simulated machine. Per-protocol state is held in a slice
// indexed by the protocol's registration order.
type Node struct {
	// ID is the node's dense index in [0, N).
	ID int

	up     bool
	states []any
}

// Up reports whether the node is switched on. Protocol rounds are only
// executed on nodes that are up.
func (n *Node) Up() bool { return n.up }

// Protocol is a distributed protocol simulated by the kernel. One instance
// serves all nodes; per-node state is created by Setup and retrieved with
// Engine.State.
type Protocol interface {
	// Name identifies the protocol; it must be unique within an Engine.
	Name() string
	// Setup builds the per-node protocol state for node n. It runs once per
	// node before the first round.
	Setup(e *Engine, n *Node) any
	// Round executes one protocol round on node n. The paper's push-pull
	// gossip exchanges are simulated by letting the active node read and
	// write the passive peer's state directly, exactly as PeerSim does.
	Round(e *Engine, n *Node, round int)
}

// ParallelRound is the opt-in contract for fork-join execution of a
// protocol's node pass. A protocol may declare it when, for every node n,
// Round(e, n, r) only WRITES state owned by n (its own protocol states, its
// own derived random stream, n-local scratch) while shared structures —
// other nodes' states, the cluster, the engine — are only READ, and no two
// nodes' rounds observe each other's writes within the same pass. Protocols
// that mutate peer state (push-pull gossip exchanges, Algorithm 3
// consolidation moving VMs) must not declare it and always run sequentially;
// LaneRound is the one exception, for exchanges that split into independent
// lanes.
//
// Determinism is the caller's headline invariant: because each conforming
// Round is self-contained and draws from per-node randomness, the round's
// outcome is independent of execution order, so any worker count — including
// 1 — produces byte-identical simulations.
type ParallelRound interface {
	Protocol
	// Parallelizable reports whether Round currently satisfies the contract
	// above.
	Parallelizable() bool
}

// LaneRound is the always-on opt-in for a pairwise protocol whose exchange is
// several independent sub-exchanges ("lanes": Algorithm 2 merges φ^out and
// φ^in, which share no state) and whose peer draw reads nothing an exchange
// writes. The engine draws the round's pairs first — the same draws in the
// same order as the per-node Round path — and then runs every lane over the
// whole pair list in draw order, lanes concurrently. Each lane's state sees
// exactly its sequential exchange sequence, so the pass is bit-identical to
// per-node Round execution at any worker count; Workers == 1 or an exhausted
// worker budget simply runs lane after lane inline.
type LaneRound interface {
	Protocol
	// DrawPair performs initiator n's peer draw exactly as Round would
	// (including node-local side effects such as view pruning or scratch
	// resets) and returns the peer's node ID, or -1 for no exchange.
	DrawPair(e *Engine, n *Node, round int) int
	// Lanes returns the number of independent lanes, or 0 to take the
	// per-node Round path.
	Lanes() int
	// RunLane runs lane's share of every drawn pair, in draw order. It may
	// write only state no other lane touches.
	RunLane(e *Engine, lane int, pairs []par.Pair, round int)
}

// Observer is called at the end of every completed round, after all
// protocols ran on all nodes.
type Observer func(e *Engine, round int)

type protoReg struct {
	proto Protocol
	due   func(round int) bool // whether the protocol's pass runs in round
}

// Engine drives one simulation run.
type Engine struct {
	rng       *RNG
	nodes     []*Node
	protocols []protoReg
	protoIdx  map[string]int
	queue     eventQueue
	now       int64
	observers []Observer
	pre       []Observer
	round     int
	stopReq   bool
	pairBuf   []par.Pair // drawPairs scratch, reused across rounds
	ahead     []func(next int)
	helper    par.Task // the round pipeline's one helper

	// RoundPeriod is the virtual duration of one round. The paper uses
	// 2-minute rounds; the default is 120 (seconds).
	RoundPeriod int64

	// Workers bounds intra-run parallelism: the fork-join passes of protocols
	// that declare ParallelRound or LaneRound, and the one helper worker
	// that runs the LookAhead hooks beside a round of sequential passes; no
	// other pass of a run forks. <= 0 (the default) sizes automatically from
	// the machine-wide worker budget shared with RunReplications, so nested
	// parallelism cannot oversubscribe; 1 forces sequential execution on the
	// caller, no other goroutine; an explicit count > 1 is honored exactly
	// (differential and race tests rely on that). Results are identical for
	// every setting.
	Workers int
}

// NewEngine builds an engine with n nodes, all initially up, seeded by seed.
func NewEngine(n int, seed uint64) *Engine {
	e := &Engine{
		rng:         NewRNG(seed),
		protoIdx:    make(map[string]int),
		RoundPeriod: 120,
	}
	e.nodes = make([]*Node, n)
	for i := range e.nodes {
		e.nodes[i] = &Node{ID: i, up: true}
	}
	return e
}

// RNG returns the engine's root random stream. Components should derive
// sub-streams rather than share it.
func (e *Engine) RNG() *RNG { return e.rng }

// Now returns the current virtual time.
func (e *Engine) Now() int64 { return e.now }

// Round returns the index of the round currently executing (or the last
// completed round between rounds).
func (e *Engine) Round() int { return e.round }

// N returns the number of nodes.
func (e *Engine) N() int { return len(e.nodes) }

// Nodes returns the node slice. Callers must not reorder it.
func (e *Engine) Nodes() []*Node { return e.nodes }

// Node returns the node with the given id.
func (e *Engine) Node(id int) *Node { return e.nodes[id] }

// SetUp switches node n on or off. Switched-off nodes do not execute
// protocol rounds and are skipped by peer samplers that filter dead peers.
// Every pass's peer draws read the flag, so only sequential Round passes,
// hooks and events may call this, never a ParallelRound or LaneRound pass.
func (e *Engine) SetUp(n *Node, up bool) { n.up = up }

// RegisterWhen adds a protocol whose pass runs in exactly the rounds for which
// due returns true. due must be a pure function of the round: the engine may
// ask it more than once per round, to schedule the pass and to decide whether
// the round's passes are all sequential (see LookAhead). A round in which due
// is false runs nothing of the protocol — no Round, no DrawPair, no fork.
// Registration order determines intra-round execution order.
func (e *Engine) RegisterWhen(p Protocol, due func(round int) bool) {
	if _, dup := e.protoIdx[p.Name()]; dup {
		panic(fmt.Sprintf("sim: duplicate protocol %q", p.Name()))
	}
	e.protoIdx[p.Name()] = len(e.protocols)
	e.protocols = append(e.protocols, protoReg{proto: p, due: due})
}

// Register adds a protocol that runs every round, starting at round 0.
func (e *Engine) Register(p Protocol) {
	e.RegisterWhen(p, func(int) bool { return true })
}

// RegisterWindow adds a protocol that runs every `every` rounds within the
// round window [from, until]; until < 0 means no upper bound.
func (e *Engine) RegisterWindow(p Protocol, every, from, until int) {
	if every < 1 {
		panic("sim: protocol period must be >= 1")
	}
	e.RegisterWhen(p, func(r int) bool {
		if r < from || (until >= 0 && r > until) {
			return false
		}
		return (r-from)%every == 0
	})
}

// Observe adds an end-of-round observer.
func (e *Engine) Observe(o Observer) { e.observers = append(e.observers, o) }

// BeforeRound adds a hook that fires at the start of every round, before any
// protocol runs. The cluster binding uses it to refresh VM demand so that
// protocols observe the round's workload.
func (e *Engine) BeforeRound(o Observer) { e.pre = append(e.pre, o) }

// LookAhead registers fn as a pure function of the next round: something
// round r+1's BeforeRound hooks will want and that depends on nothing rounds
// write — the cluster binding registers the synthesis of the next round's VM
// demand. While round r's protocol passes, observers and the event drain
// ahead of round r+1 run on the caller, RunRounds may call fn(r+1) on one
// helper worker, joined before round r+1's BeforeRound hooks fire. fn must
// therefore read nothing a protocol, observer or event writes and write
// nothing they read, and its consumer must treat the result as a cache keyed
// by round: fn is not called for round 0, for a round that follows one with a
// ParallelRound or LaneRound pass due (those own the spare cores) or with no
// pass due at all (nothing to run beside), or when no spare worker is to be
// had, and after Stop it has been called for a round that never runs — the
// run must come out the same regardless.
func (e *Engine) LookAhead(fn func(next int)) { e.ahead = append(e.ahead, fn) }

// State returns node n's state for the named protocol. It panics on unknown
// protocol names: that is always a wiring bug, not a runtime condition.
func (e *Engine) State(name string, n *Node) any {
	i, ok := e.protoIdx[name]
	if !ok {
		panic(fmt.Sprintf("sim: unknown protocol %q", name))
	}
	return n.states[i]
}

// setup runs Setup for every protocol on every node, in registration order.
func (e *Engine) setup() {
	for _, n := range e.nodes {
		if n.states == nil {
			n.states = make([]any, len(e.protocols))
		}
	}
	for pi, reg := range e.protocols {
		for _, n := range e.nodes {
			if n.states[pi] == nil {
				n.states[pi] = reg.proto.Setup(e, n)
			}
		}
	}
}

// At schedules fn at virtual time t (>= now).
func (e *Engine) At(t int64, priority int, fn func()) *Event {
	ev := &Event{Fn: fn}
	e.schedule(ev, t, priority)
	return ev
}

// schedule queues ev at virtual time t (clamped to now) — At's queueing for
// an event the caller built, which is how kernel-owned records re-enter the
// queue.
func (e *Engine) schedule(ev *Event, t int64, priority int) {
	if t < e.now {
		t = e.now
	}
	ev.Time, ev.Priority = t, priority
	e.queue.push(ev)
}

// After schedules fn after d time units.
func (e *Engine) After(d int64, priority int, fn func()) *Event {
	return e.At(e.now+d, priority, fn)
}

// Cancel removes a scheduled event.
func (e *Engine) Cancel(ev *Event) { e.queue.remove(ev) }

// Stop requests that RunRounds return at the end of the current round.
func (e *Engine) Stop() { e.stopReq = true }

// RunRounds executes `rounds` synchronous protocol rounds. Within one round
// every registered protocol (in registration order) runs over all up nodes
// in a freshly shuffled order, then observers fire. Events scheduled via
// At/After with timestamps inside the round window fire before the round's
// protocol pass.
//
// The loop is a two-stage software pipeline: in a round that has passes due,
// all of them sequential, the LookAhead hooks for the next round run on one
// helper worker beside them (see LookAhead). The helper is joined before
// the next round's BeforeRound hooks and on every way out — the last round
// launches none, and Stop or a panicking protocol joins through the deferred
// Wait — so no look-ahead work outlives the call, and a helper's panic is
// re-raised here with its original value.
func (e *Engine) RunRounds(rounds int) {
	e.setup()
	order := make([]*Node, len(e.nodes))
	copy(order, e.nodes)
	shuffleRNG := e.rng.Derive(0x5aff1e)
	defer e.helper.Wait()
	for r := 0; r < rounds; r++ {
		e.round = r
		roundStart := int64(r) * e.RoundPeriod
		e.drainUntil(roundStart)
		e.now = roundStart
		e.helper.Wait()
		for _, o := range e.pre {
			o(e, r)
		}
		shuffleRNG.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if next := r + 1; next < rounds && len(e.ahead) > 0 && e.sequentialRound(r) {
			e.helper.Start(e.Workers, func() {
				for _, fn := range e.ahead {
					fn(next)
				}
			})
		}
		for pi := range e.protocols {
			reg := &e.protocols[pi]
			if !reg.due(r) {
				continue
			}
			if lp, ok := reg.proto.(LaneRound); ok && lp.Lanes() > 0 {
				e.runLanes(lp, order, r)
				continue
			}
			if pr, ok := reg.proto.(ParallelRound); ok && pr.Parallelizable() {
				e.runNodesParallel(reg.proto, order, r)
				continue
			}
			for _, n := range order {
				if n.up {
					reg.proto.Round(e, n, r)
				}
			}
		}
		for _, o := range e.observers {
			o(e, r)
		}
		if e.stopReq {
			e.stopReq = false
			return
		}
	}
	e.round = rounds
	e.now = int64(rounds) * e.RoundPeriod
	e.drainUntil(e.now)
}

// sequentialRound reports whether round r has protocol passes due and every
// one of them runs on the caller alone. Only then may the look-ahead helper
// take a spare worker. It would otherwise hold the budget's token when a
// ParallelRound or LaneRound fork-join asks for it, and that pass — far more
// work than the look-ahead — would run inline; and with no pass due at all (a
// centralised policy that lives in a BeforeRound hook) only the observers and
// the event drain would run beside the helper before the join, so the caller
// would mostly wait out the helper's work instead of doing it.
func (e *Engine) sequentialRound(r int) bool {
	due := false
	for pi := range e.protocols {
		reg := &e.protocols[pi]
		if !reg.due(r) {
			continue
		}
		if lp, ok := reg.proto.(LaneRound); ok && lp.Lanes() > 0 {
			return false
		}
		if pr, ok := reg.proto.(ParallelRound); ok && pr.Parallelizable() {
			return false
		}
		due = true
	}
	return due
}

// drawPairs is the lane path's sequential draw phase: one draw per up node in
// shuffled order, exactly as the per-node Round loop would make them,
// collected into the engine's reused pair buffer.
func (e *Engine) drawPairs(lp LaneRound, order []*Node, r int) []par.Pair {
	pairs := e.pairBuf[:0]
	for _, n := range order {
		if !n.up {
			continue
		}
		if peer := lp.DrawPair(e, n, r); peer >= 0 {
			pairs = append(pairs, par.Pair{A: int32(n.ID), B: int32(peer)})
		}
	}
	e.pairBuf = pairs
	return pairs
}

// runLanes executes one LaneRound protocol pass: draw, then one chunk per
// lane.
func (e *Engine) runLanes(lp LaneRound, order []*Node, r int) {
	pairs := e.drawPairs(lp, order, r)
	if len(pairs) == 0 {
		return // nothing drawn (no up node found a peer): nothing to fork for
	}
	par.ForChunks(lp.Lanes(), 1, e.Workers, func(lo, hi int) {
		for lane := lo; lane < hi; lane++ {
			lp.RunLane(e, lane, pairs, r)
		}
	})
}

// runNodesParallel fans one ParallelRound protocol's pass over the shuffled
// node order. The order slice is partitioned into index-contiguous chunks and
// joined before returning, so observers never see a half-finished pass. The
// ParallelRound contract (per-node writes only, per-node randomness) makes
// the result independent of chunking and worker count.
func (e *Engine) runNodesParallel(p Protocol, order []*Node, r int) {
	// ~32 chunks regardless of worker count: fine-grained enough to balance
	// heterogeneous per-node work, coarse enough that scheduling is noise.
	chunk := (len(order) + 31) / 32
	par.ForChunks(len(order), chunk, e.Workers, func(lo, hi int) {
		for _, n := range order[lo:hi] {
			if n.up {
				p.Round(e, n, r)
			}
		}
	})
}

// drainUntil fires all pending events with Time <= t in order.
func (e *Engine) drainUntil(t int64) {
	for {
		next, ok := e.queue.peekTime()
		if !ok || next > t {
			return
		}
		ev := e.queue.pop()
		e.now = ev.Time
		ev.run()
	}
}

// RunEvents runs the engine purely event-driven until the queue empties or
// virtual time passes horizon (horizon < 0 means no bound). It is used by
// components that need finer-than-round timing.
func (e *Engine) RunEvents(horizon int64) {
	e.setup()
	for {
		next, ok := e.queue.peekTime()
		if !ok || (horizon >= 0 && next > horizon) {
			return
		}
		ev := e.queue.pop()
		e.now = ev.Time
		ev.run()
	}
}
