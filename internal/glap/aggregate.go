package glap

import (
	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/par"
	"github.com/glap-sim/glap/internal/sim"
)

// AggProtocolName registers the aggregation phase of the Gossip Learning
// component.
const AggProtocolName = "glap-aggregate"

// AggProtocol is Algorithm 2: a push-pull gossip in which every PM exchanges
// its φ^io (both Q-tables) with one random neighbour per round and the two
// endpoints merge — averaging cells present on both sides and adopting cells
// present on one — so that all PMs converge to identical Q-values.
//
// The protocol operates on the Q store owned by LearnProtocol, which must be
// registered on the same engine.
type AggProtocol struct {
	rng sim.BoundRNG

	// settled is set between rounds by Pretrain once every node's φ^out and
	// φ^in are qlearn.Identical. Nothing trains in the aggregation phase, so
	// they stay so, and an exchange is from then on the backing adoption a
	// merge of identical tables amounts to: the same pairs end up sharing
	// the same backings, with no table scanned.
	settled bool
}

// Name implements sim.Protocol.
func (a *AggProtocol) Name() string { return AggProtocolName }

// Setup implements sim.Protocol. The aggregation phase has no state of its
// own; it mutates the learning component's tables.
func (a *AggProtocol) Setup(e *sim.Engine, n *sim.Node) any {
	return struct{}{}
}

// Round implements one active-thread exchange of Algorithm 2. It is the
// sequential reference of the lane path below, which the engine runs instead.
func (a *AggProtocol) Round(e *sim.Engine, n *sim.Node, round int) {
	if peer := a.DrawPair(e, n, round); peer >= 0 {
		p, q := TablesOf(e, n), TablesOf(e, e.Node(peer))
		for lane := 0; lane < mergeLanes; lane++ {
			mergeLane(p, q, lane, a.settled)
		}
	}
}

// Lanes implements sim.LaneRound: one lane per half of MergeTables.
func (a *AggProtocol) Lanes() int { return mergeLanes }

// DrawPair implements sim.LaneRound: Round's peer draw, a uniform sample of
// the Cyclon view. It reads the overlay view and the protocol's RNG stream,
// never a table, so drawing a whole round before any merge makes exactly the
// draws Round makes.
func (a *AggProtocol) DrawPair(e *sim.Engine, n *sim.Node, round int) int {
	// Training is over for this node once aggregation runs, and its scratch
	// buffers (a few KB each) are dead weight exactly when merge unions drive
	// the peak heap: drop them. A re-learning phase regrows them lazily.
	TablesOf(e, n).scratch = learnScratch{}
	return cyclon.SelectPeer(e, n, a.rng.For(e, 0xa66a66))
}

// RunLane implements sim.LaneRound: one half of every drawn pair's merge, in
// draw order — for each table, the merge sequence Round gives it.
func (a *AggProtocol) RunLane(e *sim.Engine, lane int, pairs []par.Pair, round int) {
	for _, pr := range pairs {
		mergeLane(TablesOf(e, e.Node(int(pr.A))), TablesOf(e, e.Node(int(pr.B))), lane, a.settled)
	}
}
