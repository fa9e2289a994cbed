package glap

import (
	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap/decision"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
)

// AsyncConsolidateProtocolName registers the event-driven consolidation
// variant.
const AsyncConsolidateProtocolName = "glap-consolidate-async"

// offerAttempts is the number of times an offer is (re)sent before the
// sequence is abandoned. Retries reuse the offer token, so duplicates are
// idempotent at the target.
const offerAttempts = 2

// AsyncConsolidateProtocol is the message-passing realisation of Algorithm 3:
// where ConsolidateProtocol uses the simulator shortcut of running both
// endpoints' UPDATESTATE inside one round callback, this variant performs the
// push-pull state exchange, the π_out/π_in-vetted migration offers, and the
// accept/commit handshake as real sim.Transport messages subject to latency
// and loss.
//
// One interaction is a sequence:
//
//	initiator --acLoad(push)--> peer       (state exchange)
//	initiator <--acLoad(reply)-- peer
//	sender    --acOffer-->       target    (π_out pick, π_in + capacity
//	sender    <--acVerdict--     target     pre-vetted on estimates; target
//	sender    --acDone-->        target     re-vets fresh and reserves)
//
// Both endpoints run the direction rule on the exchanged states, so either
// side of the exchange may become the sender, exactly as in the synchronous
// protocol. The sender repeats offer/verdict/done until its goal (exit
// overload, or empty-and-power-off) is met or an offer is rejected. Because
// the remote state is only an estimate — stale by one latency, and advanced
// locally after each commit — the target re-vets every offer against its
// fresh state and, on acceptance, reserves the VM's demand until the
// sender's commit (or abort) lands or a hold timer expires. Every in-flight
// stage carries a request timeout so lost messages abort the sequence
// cleanly instead of wedging the endpoint in the busy state.
type AsyncConsolidateProtocol struct {
	B *policy.Binding
	// Tr carries the messages.
	Tr *sim.Transport
	// Tables returns the Q store for a node.
	Tables func(e *sim.Engine, n *sim.Node) *NodeTables
	// Select overrides the peer selector (defaults to Cyclon sampling).
	Select PeerSelector
	// CurrentDemandOnly mirrors Config.CurrentDemandOnly for the runtime
	// decision states (ablation switch).
	CurrentDemandOnly bool
	// OfferTimeout bounds each request stage in virtual time; it must be
	// positive. Deployments on slow links should scale it with the expected
	// round-trip.
	OfferTimeout int64

	// Counters for robustness instrumentation.
	Exchanges int64 // state exchanges initiated
	Offers    int64 // migration offers issued (excluding retries)
	Accepts   int64 // offers accepted by targets (fresh, non-duplicate)
	Commits   int64 // migrations committed by senders
	Aborts    int64 // abort notices sent for stale or failed accepts
	Expired   int64 // request or hold deadlines that fired

	// Decisions counts the protocol's Algorithm-3 outcomes, split at the
	// round the caller sets in Decisions.Split. The sender counts its
	// pre-vet, timeouts, failed commits and migrations; the target counts
	// its re-vet of each offer it receives, a retry whose first verdict was
	// lost included.
	Decisions Decisions

	rng       sim.BoundRNG
	cals      calibrations
	rt        *sim.ReqTable
	rtEngine  *sim.Engine
	nextToken uint64
	// loads is the free list of state-exchange payloads: one is taken per
	// acLoad sent and given back by Deliver, so the exchange sends pointers
	// without boxing a snapshot per message. A payload the transport drops is
	// left to the collector.
	loads []*acLoad
}

// loadState is the PM state travelling in an exchange: absolute current and
// average demand sums plus capacity, from which the receiver derives
// utilisation, overload, headroom, and the calibrated decision state.
type loadState struct {
	Cur, Avg, Cap dc.Vec
	NumVMs        int
}

func (p *AsyncConsolidateProtocol) snapshot(pm *dc.PM) loadState {
	c := p.B.C
	return loadState{
		Cur:    c.CurUtil(pm).Mul(pm.Spec.Capacity),
		Avg:    c.AvgUtil(pm).Mul(pm.Spec.Capacity),
		Cap:    pm.Spec.Capacity,
		NumVMs: pm.NumVMs(),
	}
}

// overloaded mirrors Cluster.Overloaded on a snapshot.
func (ls loadState) overloaded() bool {
	u := ls.Cur.Div(ls.Cap)
	for _, x := range u {
		if x >= 1 {
			return true
		}
	}
	return false
}

// util is the mean current utilisation used by the direction rule.
func (ls loadState) util() float64 { return ls.Cur.Div(ls.Cap).Avg() }

// free is the remaining capacity under current demand, clamped at zero.
func (ls loadState) free() dc.Vec {
	var f dc.Vec
	for r := 0; r < dc.NumResources; r++ {
		f[r] = ls.Cap[r] - ls.Cur[r]
		if f[r] < 0 {
			f[r] = 0
		}
	}
	return f
}

// state is the calibrated decision state of the snapshot, LevelsOf(d /
// Cap).State() computed through the capacity's boundary table in cals.
func (ls loadState) state(cals *calibrations, currentOnly bool) qlearn.State {
	d := ls.Avg
	if currentOnly {
		d = ls.Cur
	}
	return cals.of(ls.Cap).state(d)
}

// view summarises the snapshot for the shared direction rule; at zero
// latency it matches the live pmView of the same PM exactly (pinned by the
// differential test).
func (ls loadState) view(id int) decision.View {
	return decision.View{ID: id, Overloaded: ls.overloaded(), Util: ls.util()}
}

// acNode is the per-node protocol state.
type acNode struct {
	// Sender-side sequence state.
	busy         bool
	epoch        uint64
	mode         decision.Mode
	target       int
	remote       loadState
	offerVM      int
	pendingToken uint64
	exchReq      uint64
	offerReq     uint64
	// exchEpoch is the epoch of the exchange exchReq times; onExchExpire,
	// bound once in Setup, is its expiry callback.
	exchEpoch    uint64
	onExchExpire func(uint64)
	// done records tokens whose outcome this sender already settled, so a
	// late duplicate verdict is never answered with a second (contradictory)
	// acDone.
	done map[uint64]bool

	// Target-side state: open reservation holds (token → request id) and
	// tokens already released, so duplicate offers from retries are answered
	// idempotently without re-reserving.
	holds    map[uint64]uint64
	finished map[uint64]bool
}

// Message payloads.
type acLoad struct {
	Epoch uint64
	From  loadState
	Reply bool
}

type acOffer struct {
	Token             uint64
	VM                int
	Action            qlearn.Action
	Demand, AvgDemand dc.Vec
}

type acVerdict struct {
	Token  uint64
	Accept bool
}

type acDone struct {
	Token  uint64
	Commit bool
}

// Name implements sim.Protocol.
func (p *AsyncConsolidateProtocol) Name() string { return AsyncConsolidateProtocolName }

// Setup implements sim.Protocol.
func (p *AsyncConsolidateProtocol) Setup(e *sim.Engine, n *sim.Node) any {
	st := &acNode{
		done:     make(map[uint64]bool),
		holds:    make(map[uint64]uint64),
		finished: make(map[uint64]bool),
	}
	st.onExchExpire = func(uint64) {
		// The reply was lost (or the peer died): release the busy flag so
		// the next round can try again.
		if st.busy && st.epoch == st.exchEpoch && st.pendingToken == 0 {
			st.busy = false
			p.Expired++
			p.Decisions.at(e.Round()).Lost++
		}
	}
	return st
}

func (p *AsyncConsolidateProtocol) state(e *sim.Engine, n *sim.Node) *acNode {
	return e.State(AsyncConsolidateProtocolName, n).(*acNode)
}

func (p *AsyncConsolidateProtocol) pmState(c *dc.Cluster, pm *dc.PM) qlearn.State {
	return p.cals.pmState(c, pm, p.CurrentDemandOnly)
}

func (p *AsyncConsolidateProtocol) vmAction(vm *dc.VM) qlearn.Action {
	return DecisionVMAction(vm, p.CurrentDemandOnly)
}

// reqs returns the engine-bound request table, creating it on first use (or
// when the protocol value is reused on a new engine).
func (p *AsyncConsolidateProtocol) reqs(e *sim.Engine) *sim.ReqTable {
	if p.rtEngine != e {
		p.rtEngine, p.rt = e, sim.NewReqTable(e)
	}
	return p.rt
}

// Round implements the active thread: start one state exchange per round
// unless a previous sequence is still in flight.
func (p *AsyncConsolidateProtocol) Round(e *sim.Engine, n *sim.Node, round int) {
	st := p.state(e, n)
	pm := p.B.PM(n)
	if st.busy || !pm.On() {
		return
	}
	sel := p.Select
	if sel == nil {
		sel = cyclon.SelectPeer
	}
	peer := sel(e, n, p.rng.For(e, 0xa57c05))
	if peer < 0 {
		return
	}
	st.busy = true
	st.epoch++
	st.target = peer
	p.Exchanges++
	st.exchEpoch = st.epoch
	p.Tr.Send(n.ID, peer, p.load(st.epoch, p.snapshot(pm), false))
	st.exchReq = p.reqs(e).Add(p.OfferTimeout, st.onExchExpire)
}

// load takes a state-exchange payload off the free list and fills it.
func (p *AsyncConsolidateProtocol) load(epoch uint64, from loadState, reply bool) *acLoad {
	var ld *acLoad
	if k := len(p.loads); k > 0 {
		ld, p.loads = p.loads[k-1], p.loads[:k-1]
	} else {
		ld = new(acLoad)
	}
	*ld = acLoad{Epoch: epoch, From: from, Reply: reply}
	return ld
}

// Deliver implements sim.Handler. A state-exchange payload is copied out and
// returned to the free list before it is handled, so the reply reuses it.
// The recycling lives here rather than in the transport: a handler may be
// wrapped (a timing decorator, say), and only the protocol knows which of
// its payloads it owns.
func (p *AsyncConsolidateProtocol) Deliver(e *sim.Engine, n *sim.Node, m sim.Message) {
	switch msg := m.Payload.(type) {
	case *acLoad:
		ld := *msg
		p.loads = append(p.loads, msg)
		p.onLoad(e, n, m.From, ld)
	case acOffer:
		p.onOffer(e, n, m.From, msg)
	case acVerdict:
		p.onVerdict(e, n, m.From, msg)
	case acDone:
		p.onDone(e, n, msg)
	}
}

// shouldSend runs the shared direction rule for the local endpoint against
// the remote snapshot, and counts the verdict; ModeNone means this endpoint
// does not act as sender.
func (p *AsyncConsolidateProtocol) shouldSend(e *sim.Engine, pm *dc.PM, remote loadState, remoteID int) decision.Mode {
	m := decision.Direction(pmView(p.B.C, pm), remote.view(remoteID))
	p.Decisions.at(e.Round()).mode(m)
	return m
}

// onLoad handles the state exchange at both endpoints.
func (p *AsyncConsolidateProtocol) onLoad(e *sim.Engine, n *sim.Node, from int, msg acLoad) {
	st := p.state(e, n)
	pm := p.B.PM(n)
	if !pm.On() {
		return
	}
	if !msg.Reply {
		// Passive endpoint: answer with our state (echoing the initiator's
		// epoch), then run the direction rule ourselves — either side of an
		// exchange may become the sender.
		p.Tr.Send(n.ID, from, p.load(msg.Epoch, p.snapshot(pm), true))
		if st.busy {
			return
		}
		if mode := p.shouldSend(e, pm, msg.From, from); mode != decision.ModeNone {
			st.busy = true
			st.epoch++
			st.mode = mode
			st.target = from
			st.remote = msg.From
			st.pendingToken = 0
			p.offerNext(e, n, st, pm)
		}
		return
	}
	// Initiator: match the reply to the outstanding exchange.
	if !st.busy || st.epoch != msg.Epoch || st.pendingToken != 0 {
		return
	}
	p.reqs(e).Resolve(st.exchReq)
	mode := p.shouldSend(e, pm, msg.From, from)
	if mode == decision.ModeNone {
		st.busy = false
		return
	}
	st.mode = mode
	st.target = from
	st.remote = msg.From
	p.offerNext(e, n, st, pm)
}

// offerNext issues the next migration offer of the sequence, or finishes the
// sequence when the goal is met or no admissible offer exists.
func (p *AsyncConsolidateProtocol) offerNext(e *sim.Engine, n *sim.Node, st *acNode, pm *dc.PM) {
	c := p.B.C
	finish := func() {
		st.busy = false
		st.pendingToken = 0
		if st.mode == decision.ModeEmpty && pm.NumVMs() == 0 {
			_ = p.B.TryPowerOffIfEmpty(pm.ID)
		}
	}
	if st.mode == decision.ModeShed && !c.Overloaded(pm) {
		finish()
		return
	}
	if st.mode == decision.ModeEmpty && pm.NumVMs() == 0 {
		finish()
		return
	}
	// π_out over the sender's fresh state, π_in and capacity pre-vetted on
	// the remote estimate — the same shared core migrateOne drives, except
	// the target will re-vet with its fresh state before reserving.
	k := p.Decisions.at(e.Round())
	off, v := offerFor(p.Tables(e, n), pm, p.pmState(c, pm), st.remote.state(&p.cals, p.CurrentDemandOnly), p.vmAction)
	switch {
	case v == noOffer:
		k.NoOffer++
		finish()
		return
	case v == inVeto:
		k.InVeto++
		finish()
		return
	case !off.VM.CurAbs().FitsWithin(st.remote.free()):
		k.CapVeto++
		finish()
		return
	}
	vm := off.VM
	p.nextToken++
	token := p.nextToken
	st.offerVM = vm.ID
	st.pendingToken = token
	p.Offers++
	offer := acOffer{Token: token, VM: vm.ID, Action: off.Action, Demand: vm.CurAbs(), AvgDemand: vm.AvgAbs()}
	target := st.target
	st.offerReq = p.reqs(e).AddRetry(p.OfferTimeout, offerAttempts, func() {
		p.Tr.Send(n.ID, target, offer)
	}, func(uint64) {
		// All attempts lost: abandon the sequence. The target's hold timer
		// releases any reservation a lost verdict left behind.
		if st.busy && st.pendingToken == token {
			st.busy = false
			st.pendingToken = 0
			p.Expired++
			p.Decisions.at(e.Round()).OfferTimeout++
		}
	})
}

// onOffer handles a migration offer at the target: re-vet against fresh
// state, reserve on acceptance, and reply.
func (p *AsyncConsolidateProtocol) onOffer(e *sim.Engine, n *sim.Node, from int, msg acOffer) {
	st := p.state(e, n)
	pm := p.B.PM(n)
	reply := func(accept bool) {
		p.Tr.Send(n.ID, from, acVerdict{Token: msg.Token, Accept: accept})
	}
	if _, open := st.holds[msg.Token]; open {
		// Duplicate of an offer we already accepted (the verdict is in
		// flight or was lost): repeat the verdict, keep the reservation.
		reply(true)
		return
	}
	if st.finished[msg.Token] {
		// Duplicate of an offer whose outcome is already settled; repeat the
		// acceptance without re-reserving — the sender has committed or
		// aborted and ignores this verdict.
		reply(true)
		return
	}
	if !pm.On() {
		reply(false)
		return
	}
	c := p.B.C
	// Fresh re-vet: π_in on the target's own state, and admission against
	// capacity net of open reservations.
	k := p.Decisions.at(e.Round())
	if !decision.AcceptIn(p.Tables(e, n).In, p.pmState(c, pm), msg.Action) {
		k.InVeto++
		reply(false)
		return
	}
	if !msg.Demand.FitsWithin(c.FreeCurReserved(pm)) {
		k.CapVeto++
		reply(false)
		return
	}
	if err := c.Reserve(pm, msg.Token, msg.Demand); err != nil {
		k.MigrateErr++
		reply(false)
		return
	}
	p.Accepts++
	// Hold the reservation until the sender's commit/abort lands; a lost
	// verdict or commit must not pin capacity forever.
	hold := p.reqs(e).Add(2*p.OfferTimeout, func(uint64) {
		if c.ReleaseReservation(pm, msg.Token) {
			p.Expired++
		}
		delete(st.holds, msg.Token)
		st.finished[msg.Token] = true
	})
	st.holds[msg.Token] = hold
	reply(true)
}

// onVerdict handles the target's accept/reject at the sender.
func (p *AsyncConsolidateProtocol) onVerdict(e *sim.Engine, n *sim.Node, from int, msg acVerdict) {
	st := p.state(e, n)
	pm := p.B.PM(n)
	if !st.busy || st.pendingToken != msg.Token {
		// Stale verdict: the sequence moved on (offer expired, or this is a
		// duplicate). An acceptance we never consumed pins a reservation at
		// the target — abort it explicitly rather than waiting for the hold
		// timer.
		if msg.Accept && !st.done[msg.Token] {
			st.done[msg.Token] = true
			p.Aborts++
			p.Tr.Send(n.ID, from, acDone{Token: msg.Token})
		}
		return
	}
	p.reqs(e).Resolve(st.offerReq)
	st.pendingToken = 0
	if !msg.Accept {
		// Mirror the synchronous protocol: a rejected offer ends the
		// sequence (π_in or capacity said no).
		st.busy = false
		return
	}
	c := p.B.C
	vm := c.VMs[st.offerVM]
	dst := c.PMs[st.target]
	st.done[msg.Token] = true
	if vm.Host() != pm.ID || !dst.On() || c.Migrate(vm, dst) != nil {
		// The VM departed or moved, or the target died after accepting:
		// abort so the reservation is released promptly.
		p.Decisions.at(e.Round()).MigrateErr++
		p.Aborts++
		p.Tr.Send(n.ID, from, acDone{Token: msg.Token})
		st.busy = false
		return
	}
	p.Commits++
	p.Decisions.at(e.Round()).Migrated++
	p.Tr.Send(n.ID, from, acDone{Token: msg.Token, Commit: true})
	// Advance the remote estimate so follow-up offers in this sequence vet
	// against the target's expected post-migration state.
	st.remote.Cur = st.remote.Cur.Add(vm.CurAbs())
	st.remote.Avg = st.remote.Avg.Add(vm.AvgAbs())
	st.remote.NumVMs++
	p.offerNext(e, n, st, pm)
}

// onDone releases the reservation at the target when the sender's commit or
// abort lands.
func (p *AsyncConsolidateProtocol) onDone(e *sim.Engine, n *sim.Node, msg acDone) {
	st := p.state(e, n)
	pm := p.B.PM(n)
	if hold, ok := st.holds[msg.Token]; ok {
		p.reqs(e).Resolve(hold)
		delete(st.holds, msg.Token)
		p.B.C.ReleaseReservation(pm, msg.Token)
	}
	st.finished[msg.Token] = true
}

// OpenRequests returns the number of unresolved request deadlines — zero
// once a run has fully drained.
func (p *AsyncConsolidateProtocol) OpenRequests() int {
	if p.rt == nil {
		return 0
	}
	return p.rt.Open()
}
