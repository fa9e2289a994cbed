package cyclon

import (
	"testing"

	"github.com/glap-sim/glap/internal/sim"
)

func runCyclon(t *testing.T, nodes, rounds, view, shuffle int, seed uint64) *sim.Engine {
	t.Helper()
	e := sim.NewEngine(nodes, seed)
	e.Register(New(view, shuffle))
	e.RunRounds(rounds)
	return e
}

func TestViewInvariants(t *testing.T) {
	const nodes, view = 40, 8
	e := runCyclon(t, nodes, 30, view, 4, 1)
	for _, n := range e.Nodes() {
		v := ViewOf(e, n)
		if v.Len() > view {
			t.Fatalf("node %d view size %d > %d", n.ID, v.Len(), view)
		}
		if v.Len() == 0 {
			t.Fatalf("node %d has empty view", n.ID)
		}
		seen := map[int]bool{}
		for _, entry := range v.Entries() {
			if entry.Peer == n.ID {
				t.Fatalf("node %d has itself in view", n.ID)
			}
			if entry.Peer < 0 || entry.Peer >= nodes {
				t.Fatalf("node %d has out-of-range peer %d", n.ID, entry.Peer)
			}
			if seen[entry.Peer] {
				t.Fatalf("node %d has duplicate peer %d", n.ID, entry.Peer)
			}
			seen[entry.Peer] = true
			if entry.Age < 0 || entry.Age > 30+1 {
				t.Fatalf("node %d entry age %d out of range", n.ID, entry.Age)
			}
		}
	}
}

func TestBootstrapSmallNetwork(t *testing.T) {
	// View size larger than the network: after bootstrap each view holds
	// all other nodes; shuffling may transiently drop one (the discarded
	// oldest target) but views must stay near-complete and non-empty.
	e := runCyclon(t, 4, 0, 20, 8, 2)
	for _, n := range e.Nodes() {
		if got := ViewOf(e, n).Len(); got != 3 {
			t.Fatalf("node %d bootstrap view size %d, want 3", n.ID, got)
		}
	}
	e.RunRounds(5)
	for _, n := range e.Nodes() {
		if got := ViewOf(e, n).Len(); got < 2 {
			t.Fatalf("node %d view size %d after shuffles, want >= 2", n.ID, got)
		}
	}
}

func TestInDegreeBalance(t *testing.T) {
	// After shuffling, in-degrees should be roughly balanced — the defining
	// property of Cyclon overlays (no node should be isolated or a hub).
	const nodes = 60
	e := runCyclon(t, nodes, 50, 8, 4, 3)
	indeg := make([]int, nodes)
	for _, n := range e.Nodes() {
		for _, entry := range ViewOf(e, n).Entries() {
			indeg[entry.Peer]++
		}
	}
	for id, d := range indeg {
		if d == 0 {
			t.Fatalf("node %d has in-degree 0", id)
		}
		if d > 8*4 {
			t.Fatalf("node %d has in-degree %d — hub formation", id, d)
		}
	}
}

func TestDeadPeersEvicted(t *testing.T) {
	e := sim.NewEngine(30, 4)
	e.Register(New(6, 3))
	e.RunRounds(10)
	// Kill a third of the network.
	for id := 0; id < 10; id++ {
		e.SetUp(e.Node(id), false)
	}
	e.RunRounds(30)
	for _, n := range e.Nodes() {
		if !n.Up() {
			continue
		}
		for _, entry := range ViewOf(e, n).Entries() {
			if entry.Peer < 10 {
				t.Fatalf("live node %d still references dead node %d", n.ID, entry.Peer)
			}
		}
	}
}

func TestSelectPeer(t *testing.T) {
	e := runCyclon(t, 20, 10, 6, 3, 5)
	rng := sim.NewRNG(11)
	for _, n := range e.Nodes() {
		p := SelectPeer(e, n, rng)
		if p < 0 || p == n.ID {
			t.Fatalf("SelectPeer(%d) = %d", n.ID, p)
		}
		if !e.Node(p).Up() {
			t.Fatalf("selected dead peer %d", p)
		}
	}
}

func TestSelectPeerPrunesDead(t *testing.T) {
	e := runCyclon(t, 10, 5, 4, 2, 6)
	// Kill everyone except node 0.
	for id := 1; id < 10; id++ {
		e.SetUp(e.Node(id), false)
	}
	rng := sim.NewRNG(3)
	if p := SelectPeer(e, e.Node(0), rng); p != -1 {
		t.Fatalf("SelectPeer with no live peers = %d, want -1", p)
	}
	if ViewOf(e, e.Node(0)).Len() != 0 {
		t.Fatal("dead entries should have been pruned")
	}
}

// TestSelectPeerNeverReturnsDown draws repeatedly from views that mix live
// and dead peers, as every protocol's partner draw does after a crash: each
// draw is a live peer from the node's own view, and a view holding a live
// peer never yields -1.
func TestSelectPeerNeverReturnsDown(t *testing.T) {
	e := runCyclon(t, 30, 15, 8, 4, 9)
	for id := 0; id < 30; id += 3 {
		e.SetUp(e.Node(id), false)
	}
	rng := sim.NewRNG(5)
	mixed := 0
	for _, n := range e.Nodes() {
		if !n.Up() {
			continue
		}
		inView := map[int]bool{}
		live := 0
		for _, entry := range ViewOf(e, n).Entries() {
			inView[entry.Peer] = true
			if e.Node(entry.Peer).Up() {
				live++
			}
		}
		if live > 0 && live < len(inView) {
			mixed++
		}
		for i := 0; i < 50; i++ {
			p := SelectPeer(e, n, rng)
			if p < 0 && live > 0 {
				t.Fatalf("node %d: SelectPeer = -1 with %d live peers in view", n.ID, live)
			}
			if p >= 0 && (!inView[p] || !e.Node(p).Up()) {
				t.Fatalf("node %d: SelectPeer = %d (in view %v, up %v)", n.ID, p, inView[p], e.Node(p).Up())
			}
		}
	}
	if mixed == 0 {
		t.Fatal("degenerate run: no view mixes live and dead peers")
	}
}

func TestNewDefaults(t *testing.T) {
	p := New(0, 0)
	if p.ViewSize != 20 {
		t.Fatalf("default view size %d", p.ViewSize)
	}
	if p.ShuffleLen != 10 { // (20+1)/2
		t.Fatalf("default shuffle length %d, want 10", p.ShuffleLen)
	}
	p = New(10, 99) // shuffle > view clamps
	if p.ShuffleLen > p.ViewSize {
		t.Fatalf("shuffle length %d not clamped", p.ShuffleLen)
	}
}

func TestConnectivityReachability(t *testing.T) {
	// The union of views must form a connected digraph (weakly) so gossip
	// reaches everyone.
	const nodes = 50
	e := runCyclon(t, nodes, 40, 8, 4, 7)
	adj := make([][]int, nodes)
	for _, n := range e.Nodes() {
		for _, entry := range ViewOf(e, n).Entries() {
			adj[n.ID] = append(adj[n.ID], entry.Peer)
			adj[entry.Peer] = append(adj[entry.Peer], n.ID)
		}
	}
	seen := make([]bool, nodes)
	stack := []int{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	if count != nodes {
		t.Fatalf("overlay disconnected: reached %d of %d", count, nodes)
	}
}

func TestViewAccessors(t *testing.T) {
	v := &View{}
	v.entries = []Entry{{Peer: 3, Age: 1}, {Peer: 5, Age: 2}}
	if !v.Contains(3) || v.Contains(4) {
		t.Fatal("Contains broken")
	}
	peers := v.Peers()
	if len(peers) != 2 || peers[0] != 3 || peers[1] != 5 {
		t.Fatalf("Peers = %v", peers)
	}
	// Entries returns a copy.
	ents := v.Entries()
	ents[0].Peer = 99
	if v.entries[0].Peer == 99 {
		t.Fatal("Entries should return a copy")
	}
	v.remove(3)
	if v.Contains(3) || v.Len() != 1 {
		t.Fatal("remove broken")
	}
	if (&View{}).oldestIndex() != -1 {
		t.Fatal("oldestIndex of empty view should be -1")
	}
}

// TestProtocolReuseDeterminism pins the BoundRNG fix: running the same
// Protocol value on a second engine must match a fresh instance on that
// engine — the derived stream may not leak state across engines.
func TestProtocolReuseDeterminism(t *testing.T) {
	const nodes, rounds, view, shuffle = 30, 20, 6, 3
	p := New(view, shuffle)
	e1 := sim.NewEngine(nodes, 3)
	e1.Register(p)
	e1.RunRounds(rounds)
	e2 := sim.NewEngine(nodes, 5)
	e2.Register(p) // reused instance
	e2.RunRounds(rounds)
	ref := runCyclon(t, nodes, rounds, view, shuffle, 5)
	for _, n := range e2.Nodes() {
		got, want := ViewOf(e2, n).Entries(), ViewOf(ref, n).Entries()
		if len(got) != len(want) {
			t.Fatalf("node %d: view size %d != %d", n.ID, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d entry %d: reused instance %+v != fresh %+v", n.ID, i, got[i], want[i])
			}
		}
	}
}

// linearProtocol is Cyclon with the merge it had before the peer-indexed
// marks: indexOf/firstInFrom/removePeer scans of the view per received entry.
// Retired from the production path, it is kept whole — Round included, so
// the two sides share nothing but the view type and the random stream
// derivation — as the oracle of TestMergeMatchesLinearScan.
type linearProtocol struct {
	*Protocol
	sent []int
}

func (c *linearProtocol) Round(e *sim.Engine, n *sim.Node, round int) {
	rng := c.rngFor(e)
	v := viewOf(e, n)
	for i := range v.entries {
		v.entries[i].Age++
	}
	var q *sim.Node
	for q == nil {
		oi := v.oldestIndex()
		if oi < 0 {
			return
		}
		if cand := e.Node(v.entries[oi].Peer); cand.Up() {
			q = cand
		}
		v.entries = append(v.entries[:oi], v.entries[oi+1:]...)
	}
	req := []Entry{{Peer: n.ID}}
	for _, i := range rng.Perm(len(v.entries)) {
		if len(req) >= c.ShuffleLen {
			break
		}
		req = append(req, v.entries[i])
	}
	qv := viewOf(e, q)
	var reply []Entry
	for _, i := range rng.Perm(len(qv.entries)) {
		if len(reply) >= c.ShuffleLen {
			break
		}
		reply = append(reply, qv.entries[i])
	}
	c.mergeLinear(e, qv, q.ID, req, reply)
	c.mergeLinear(e, v, n.ID, reply, req)
	if len(v.entries) < c.ViewSize && !v.Contains(q.ID) {
		v.entries = append(v.entries, Entry{Peer: q.ID})
	}
}

func (c *linearProtocol) mergeLinear(e *sim.Engine, v *View, self int, received, sent []Entry) {
	sentPeers := c.sent[:0]
	for _, s := range sent {
		sentPeers = append(sentPeers, s.Peer)
	}
	evictFrom := 0
	for _, r := range received {
		if r.Peer == self || !e.Node(r.Peer).Up() {
			continue
		}
		if i := indexOf(v.entries, r.Peer); i >= 0 {
			if r.Age < v.entries[i].Age {
				v.entries[i].Age = r.Age
			}
			continue
		}
		if len(v.entries) < c.ViewSize {
			v.entries = append(v.entries, r)
			continue
		}
		if len(sentPeers) > 0 {
			if ei := firstInFrom(v.entries, sentPeers, evictFrom); ei >= 0 {
				sentPeers = removePeer(sentPeers, v.entries[ei].Peer)
				v.entries[ei] = r
				evictFrom = ei + 1
				continue
			}
			sentPeers = sentPeers[:0]
		}
		if oi := v.oldestIndex(); oi >= 0 && v.entries[oi].Age > r.Age {
			v.entries[oi] = r
		}
	}
	c.sent = sentPeers
}

func indexOf(entries []Entry, peer int) int {
	for i, e := range entries {
		if e.Peer == peer {
			return i
		}
	}
	return -1
}

func firstInFrom(entries []Entry, sent []int, from int) int {
	for i := from; i < len(entries); i++ {
		for _, p := range sent {
			if entries[i].Peer == p {
				return i
			}
		}
	}
	return -1
}

func removePeer(sent []int, peer int) []int {
	for i, p := range sent {
		if p == peer {
			sent[i] = sent[len(sent)-1]
			return sent[:len(sent)-1]
		}
	}
	return sent
}

// TestMergeMatchesLinearScan replays seeded shuffles — networks smaller than
// the view, views of 4, 20 and 300 slots, a third of the nodes crashing and
// recovering mid-run — through the marks-indexed merge and the retired
// linear-scan protocol on twin engines, and requires identical views and
// ages after every round plus the view invariants. One production Protocol
// value serves every configuration in turn, so its marks are resized across
// engine sizes, and its generation counter is parked just below the wrap.
func TestMergeMatchesLinearScan(t *testing.T) {
	configs := []struct{ nodes, view, shuffle, rounds int }{
		{3, 4, 2, 300},
		{6, 4, 3, 300},
		{12, 20, 8, 200}, // network smaller than the view
		{60, 4, 2, 60},
		{80, 20, 8, 60},
		{80, 20, 20, 30}, // whole-view shuffles
		{350, 300, 120, 6},
		{350, 300, 8, 6},
	}
	prod := New(0, 0)
	shuffles := 0
	for ci, cfg := range configs {
		prod.ViewSize, prod.ShuffleLen = cfg.view, cfg.shuffle
		prod.gen = ^uint32(0) - 50
		seed := uint64(100 + ci)
		eNew, eOld := sim.NewEngine(cfg.nodes, seed), sim.NewEngine(cfg.nodes, seed)
		eNew.Register(prod)
		eOld.Register(&linearProtocol{Protocol: New(cfg.view, cfg.shuffle)})
		fault := sim.NewRNG(seed)
		for r := 0; r < cfg.rounds; r++ {
			if r%10 == 5 {
				for id := 0; id < cfg.nodes; id++ {
					up := fault.Intn(3) != 0
					eNew.SetUp(eNew.Node(id), up)
					eOld.SetUp(eOld.Node(id), up)
				}
			}
			eNew.RunRounds(1)
			eOld.RunRounds(1)
			for _, n := range eNew.Nodes() {
				if n.Up() {
					shuffles++
				}
				got, want := viewOf(eNew, n).entries, viewOf(eOld, eOld.Node(n.ID)).entries
				if len(got) != len(want) {
					t.Fatalf("config %d round %d node %d: view size %d, linear scan %d", ci, r, n.ID, len(got), len(want))
				}
				if len(got) > cfg.view {
					t.Fatalf("config %d round %d node %d: view size %d > %d", ci, r, n.ID, len(got), cfg.view)
				}
				seen := make(map[int]bool, len(got))
				for i, entry := range got {
					if entry != want[i] {
						t.Fatalf("config %d round %d node %d slot %d: %+v, linear scan %+v", ci, r, n.ID, i, entry, want[i])
					}
					if entry.Peer == n.ID || seen[entry.Peer] {
						t.Fatalf("config %d round %d node %d: self or duplicate peer %d in view", ci, r, n.ID, entry.Peer)
					}
					seen[entry.Peer] = true
				}
			}
		}
		if prod.gen > 1<<31 {
			t.Fatalf("config %d: generation %d never wrapped", ci, prod.gen)
		}
	}
	if shuffles < 10000 {
		t.Fatalf("replayed only %d shuffles", shuffles)
	}

	// A shuffle never receives more new peers than it sent away plus the
	// slot its target vacated, so the protocol runs above cannot reach the
	// strictly-older oldest-entry eviction. Drive the two merges directly
	// over random full and partial views, with ages on a coarse grid so
	// equal-age ties are common; sent stays within view ∪ {self}, the
	// shuffle's precondition.
	const nodes, self = 40, 0
	e := sim.NewEngine(nodes, 7)
	for id := 30; id < nodes; id++ {
		e.SetUp(e.Node(id), false)
	}
	rng := sim.NewRNG(8)
	old := &linearProtocol{Protocol: New(0, 0)}
	for i := 0; i < 5000; i++ {
		prod.ViewSize = 1 + rng.Intn(12)
		old.ViewSize = prod.ViewSize
		var view, sent, received []Entry
		for _, p := range rng.Perm(nodes - 1)[:rng.Intn(prod.ViewSize+1)] {
			view = append(view, Entry{Peer: p + 1, Age: rng.Intn(4)})
			if rng.Intn(3) == 0 {
				sent = append(sent, view[len(view)-1])
			}
		}
		if rng.Intn(2) == 0 {
			sent = append(sent, Entry{Peer: self})
		}
		for n := rng.Intn(16); n > 0; n-- {
			received = append(received, Entry{Peer: rng.Intn(nodes), Age: rng.Intn(4)})
		}
		got := &View{entries: append([]Entry(nil), view...)}
		want := &View{entries: append([]Entry(nil), view...)}
		prod.merge(e, got, self, received, sent)
		old.mergeLinear(e, want, self, received, sent)
		if len(got.entries) != len(want.entries) {
			t.Fatalf("merge %d: view %v, linear scan %v (view %v received %v sent %v)", i, got.entries, want.entries, view, received, sent)
		}
		for j := range got.entries {
			if got.entries[j] != want.entries[j] {
				t.Fatalf("merge %d: view %v, linear scan %v (view %v received %v sent %v)", i, got.entries, want.entries, view, received, sent)
			}
		}
	}
}

// TestCyclonRoundZeroAlloc pins the steady-state shuffle: once the scratch
// buffers, the marks and every view's backing array have reached their
// working size, a full pass of Round over the network allocates nothing.
func TestCyclonRoundZeroAlloc(t *testing.T) {
	e := sim.NewEngine(200, 9)
	c := New(20, 8)
	e.Register(c)
	e.RunRounds(30)
	nodes := e.Nodes()
	allocs := testing.AllocsPerRun(20, func() {
		for _, n := range nodes {
			c.Round(e, n, 30)
		}
	})
	if allocs != 0 {
		t.Fatalf("cyclon round allocates: %.1f allocs/run, want 0", allocs)
	}
}
