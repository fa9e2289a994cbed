// Package cyclon implements the Cyclon gossip-based membership protocol
// (Voulgaris, Gavidia, van Steen, 2005): every node keeps a small partial
// view of the network and, once per round, swaps a random subset of it with
// its oldest neighbour. The resulting overlay approximates a random graph
// and provides the uniform random peer sampling that both the GLAP learning
// and consolidation components, as well as the gossip baselines, rely on.
package cyclon

import (
	"math/bits"

	"github.com/glap-sim/glap/internal/sim"
)

// ProtocolName is the registration name used with sim.Engine.
const ProtocolName = "cyclon"

// Entry is one view slot: a peer id and the entry's age in rounds.
type Entry struct {
	Peer int
	Age  int
}

// View is a node's partial membership view.
type View struct {
	entries []Entry
}

// Len returns the number of entries.
func (v *View) Len() int { return len(v.entries) }

// Entries returns a copy of the view's entries.
func (v *View) Entries() []Entry {
	out := make([]Entry, len(v.entries))
	copy(out, v.entries)
	return out
}

// Contains reports whether peer is in the view.
func (v *View) Contains(peer int) bool {
	for _, e := range v.entries {
		if e.Peer == peer {
			return true
		}
	}
	return false
}

// Peers returns the peer ids in the view.
func (v *View) Peers() []int {
	out := make([]int, len(v.entries))
	for i, e := range v.entries {
		out[i] = e.Peer
	}
	return out
}

func (v *View) remove(peer int) {
	for i, e := range v.entries {
		if e.Peer == peer {
			v.entries = append(v.entries[:i], v.entries[i+1:]...)
			return
		}
	}
}

// oldestIndex returns the index of the entry with maximal age, or -1 when
// the view is empty. Ties break toward the lowest index, which is
// deterministic given the deterministic view construction.
func (v *View) oldestIndex() int {
	best, bestAge := -1, -1
	for i, e := range v.entries {
		if e.Age > bestAge {
			best, bestAge = i, e.Age
		}
	}
	return best
}

// Protocol is the Cyclon protocol. Register it first so that higher layers
// can sample peers in the same round.
type Protocol struct {
	// ViewSize is the partial view capacity (paper-typical: 20).
	ViewSize int
	// ShuffleLen is the number of entries exchanged per shuffle (<=
	// ViewSize; typical: 8).
	ShuffleLen int

	rng sim.BoundRNG

	// scratch holds the per-shuffle request/reply/permutation buffers,
	// reused across nodes and rounds so the steady-state shuffle allocates
	// nothing. Safe because the protocol mutates peer views and therefore
	// always runs its node pass sequentially (it does not implement
	// sim.ParallelRound).
	scratch struct {
		req, reply []Entry
		perm       []int
		sentSlots  []uint64
	}

	// marks indexes the view being merged by peer ID, so merge finds a
	// received peer's slot without scanning the view. A mark is live only
	// while its gen equals the protocol's: merge bumps gen and re-stamps the
	// view's peers on entry, which retires every mark of the previous merge
	// at once.
	marks []peerMark
	gen   uint32
}

// peerMark is merge's per-peer index entry: while gen matches Protocol.gen,
// the peer sits in view slot slot.
type peerMark struct {
	gen  uint32
	slot int32
}

// rngFor returns the protocol's random stream for engine e, re-deriving it
// when the protocol value is reused on a different engine so that every
// engine sees the stream its own seed determines.
func (c *Protocol) rngFor(e *sim.Engine) *sim.RNG { return c.rng.For(e, 0xc1c10) }

// New returns a Cyclon protocol with the given view size and shuffle length.
func New(viewSize, shuffleLen int) *Protocol {
	if viewSize <= 0 {
		viewSize = 20
	}
	if shuffleLen <= 0 || shuffleLen > viewSize {
		shuffleLen = (viewSize + 1) / 2
	}
	return &Protocol{ViewSize: viewSize, ShuffleLen: shuffleLen}
}

// Name implements sim.Protocol.
func (c *Protocol) Name() string { return ProtocolName }

// Setup bootstraps node n's view with ViewSize distinct random peers.
func (c *Protocol) Setup(e *sim.Engine, n *sim.Node) any {
	rng := c.rngFor(e)
	v := &View{}
	size := c.ViewSize
	if size > e.N()-1 {
		size = e.N() - 1
	}
	for len(v.entries) < size {
		p := rng.Intn(e.N())
		if p == n.ID || v.Contains(p) {
			continue
		}
		v.entries = append(v.entries, Entry{Peer: p})
	}
	return v
}

// viewOf returns node n's Cyclon view.
func viewOf(e *sim.Engine, n *sim.Node) *View {
	return e.State(ProtocolName, n).(*View)
}

// Round implements one Cyclon shuffle for node n: age the view, pick the
// oldest live neighbour q, exchange ShuffleLen entries, and merge replies
// preferring fresh entries. Entries pointing at switched-off nodes are
// discarded as they are encountered (the simulation analogue of a timeout).
func (c *Protocol) Round(e *sim.Engine, n *sim.Node, round int) {
	rng := c.rngFor(e)
	v := viewOf(e, n)
	for i := range v.entries {
		v.entries[i].Age++
	}
	// Pick oldest live target, dropping dead entries on the way.
	var q *sim.Node
	for {
		oi := v.oldestIndex()
		if oi < 0 {
			return
		}
		cand := e.Node(v.entries[oi].Peer)
		if cand.Up() {
			q = cand
			v.entries = append(v.entries[:oi], v.entries[oi+1:]...)
			break
		}
		v.entries = append(v.entries[:oi], v.entries[oi+1:]...)
	}

	// Build the request: self with age 0 plus up to ShuffleLen-1 random
	// view entries. Entries are copied by value into the reused scratch
	// buffers, so later view mutations cannot alias them.
	req := append(c.scratch.req[:0], Entry{Peer: n.ID, Age: 0})
	idx := rng.PermInto(c.scratch.perm, len(v.entries))
	for _, i := range idx {
		if len(req) >= c.ShuffleLen {
			break
		}
		req = append(req, v.entries[i])
	}

	// The passive side replies with up to ShuffleLen random entries and
	// merges the request.
	qv := viewOf(e, q)
	reply := c.scratch.reply[:0]
	qidx := rng.PermInto(idx, len(qv.entries))
	for _, i := range qidx {
		if len(reply) >= c.ShuffleLen {
			break
		}
		reply = append(reply, qv.entries[i])
	}
	c.scratch.req, c.scratch.reply, c.scratch.perm = req, reply, qidx
	c.merge(e, qv, q.ID, req, reply)
	c.merge(e, v, n.ID, reply, req)
	// Re-add the shuffle partner when space allows: without this, views in
	// very small networks erode (the discarded oldest target is often not
	// compensated by the reply, which may contain only duplicates or self).
	if len(v.entries) < c.ViewSize && !v.Contains(q.ID) {
		v.entries = append(v.entries, Entry{Peer: q.ID})
	}
}

// merge folds received entries into view v (owned by self), preferring to
// overwrite the entries that were sent away, never duplicating peers or
// adding self, and keeping the freshest age for duplicates. Each received
// entry costs O(1): the view is indexed by peer ID in c.marks, kept in sync
// with every append and replacement below.
func (c *Protocol) merge(e *sim.Engine, v *View, self int, received, sent []Entry) {
	if len(c.marks) != e.N() {
		// First merge, or the protocol value moved to an engine of another
		// size.
		c.marks, c.gen = make([]peerMark, e.N()), 0
	}
	c.gen++
	if c.gen == 0 {
		// Generation wrap: marks stamped 2^32 merges ago would read as live.
		clear(c.marks)
		c.gen = 1
	}
	gen, marks := c.gen, c.marks
	for i, ve := range v.entries {
		marks[ve.Peer] = peerMark{gen: gen, slot: int32(i)}
	}
	// sentSlots is the set of view slots holding a peer this side sent away
	// (self, the head of a request, is never in the view), one bit per slot.
	// Slots never move during a merge and a replaced slot holds a peer that
	// was not sent, so the set only shrinks: taking its lowest bit is the
	// first sent-away entry in view order, and once it is empty no sent-away
	// peer is left anywhere in the view.
	sentSlots := c.scratch.sentSlots[:0]
	for i := 0; i < len(v.entries); i += 64 {
		sentSlots = append(sentSlots, 0)
	}
	c.scratch.sentSlots = sentSlots
	for _, s := range sent {
		if m := marks[s.Peer]; m.gen == gen {
			sentSlots[m.slot>>6] |= 1 << (m.slot & 63)
		}
	}
	w := 0 // first word of sentSlots that may be non-zero
	for _, r := range received {
		if r.Peer == self || !e.Node(r.Peer).Up() {
			continue
		}
		if m := marks[r.Peer]; m.gen == gen {
			if r.Age < v.entries[m.slot].Age {
				v.entries[m.slot].Age = r.Age
			}
			continue
		}
		if len(v.entries) < c.ViewSize {
			marks[r.Peer] = peerMark{gen: gen, slot: int32(len(v.entries))}
			v.entries = append(v.entries, r)
			continue
		}
		// View full: first evict an entry we sent away, else the oldest if
		// it is strictly older.
		for w < len(sentSlots) && sentSlots[w] == 0 {
			w++
		}
		var ei int
		if w < len(sentSlots) {
			bit := bits.TrailingZeros64(sentSlots[w])
			sentSlots[w] &^= 1 << bit
			ei = w*64 + bit
		} else if ei = v.oldestIndex(); ei < 0 || v.entries[ei].Age <= r.Age {
			continue
		}
		marks[v.entries[ei].Peer].gen = 0
		marks[r.Peer] = peerMark{gen: gen, slot: int32(ei)}
		v.entries[ei] = r
	}
}

// SelectPeer returns a uniformly random live peer from n's view, removing
// dead entries as a side effect. It returns -1 when no live peer is known.
// rng must be the caller's own stream (peer selection belongs to the calling
// protocol's randomness, not Cyclon's).
func SelectPeer(e *sim.Engine, n *sim.Node, rng *sim.RNG) int {
	v := viewOf(e, n)
	for v.Len() > 0 {
		i := rng.Intn(v.Len())
		peer := v.entries[i].Peer
		if e.Node(peer).Up() {
			return peer
		}
		v.entries = append(v.entries[:i], v.entries[i+1:]...)
	}
	return -1
}

// ViewOf exposes node n's view for observers and tests.
func ViewOf(e *sim.Engine, n *sim.Node) *View { return viewOf(e, n) }
