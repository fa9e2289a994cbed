package glap

import (
	"sort"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap/decision"
	"github.com/glap-sim/glap/internal/gossip"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/topology"
)

// ConsolidateProtocolName registers the Gossip Consolidation component.
const ConsolidateProtocolName = "glap-consolidate"

// ConsolidateProtocol is Algorithm 3: each round every PM push-pulls its
// load state with one random neighbour. An overloaded endpoint sheds VMs
// until it leaves the overloaded state; otherwise the endpoint with the
// lower current utilisation acts as sender and migrates VMs — chosen by
// π_out over φ^out — toward switching itself off. Each candidate migration
// is vetted on the sender, on behalf of the target, by π_in over φ^in
// (identical Q-values make this remote decision sound) plus the current-
// demand capacity check, eliminating a round trip.
type ConsolidateProtocol struct {
	B *policy.Binding
	// Tables returns the Q store for a node. Nil defaults to the learning
	// component registered on the same engine (TablesOf). Pre-trained
	// deployments inject tables here.
	Tables func(e *sim.Engine, n *sim.Node) *NodeTables
	// Select overrides the peer selector (defaults to Cyclon sampling).
	Select gossip.PeerSelector
	// CurrentDemandOnly mirrors Config.CurrentDemandOnly for the runtime
	// decision states (ablation switch).
	CurrentDemandOnly bool
	// Topo, when set, activates the topology-aware direction rule: between
	// two non-overloaded endpoints, the PM whose rack hosts fewer active
	// machines empties first, so sparsely occupied racks drain completely
	// and their edge switches can sleep. Rack occupancy is top-of-rack-
	// local information, so a deployment can maintain it without any
	// global view.
	Topo *topology.Tree

	rng sim.BoundRNG

	// accts holds one migration-accounting slot per drawn pair of the
	// current pair-sharded pass (see sim.PairRound); EndPairs folds them
	// back into the cluster ledger in draw order.
	accts []dc.MigAcct
}

// Name implements sim.Protocol.
func (p *ConsolidateProtocol) Name() string { return ConsolidateProtocolName }

// Setup implements sim.Protocol.
func (p *ConsolidateProtocol) Setup(e *sim.Engine, n *sim.Node) any {
	return struct{}{}
}

// pmState returns the decision state for a PM under the active demand mode.
func (p *ConsolidateProtocol) pmState(c *dc.Cluster, pm *dc.PM) qlearn.State {
	return DecisionPMState(c, pm, p.CurrentDemandOnly)
}

// vmAction returns the calibrated action for a VM under the active mode.
func (p *ConsolidateProtocol) vmAction(vm *dc.VM) qlearn.Action {
	return DecisionVMAction(vm, p.CurrentDemandOnly)
}

func (p *ConsolidateProtocol) tables(e *sim.Engine, n *sim.Node) *NodeTables {
	if p.Tables != nil {
		return p.Tables(e, n)
	}
	return TablesOf(e, n)
}

// Round implements one push-pull interaction: the initiator and the passive
// peer exchange states and both run UPDATESTATE (Algorithm 3, lines 1-17).
func (p *ConsolidateProtocol) Round(e *sim.Engine, n *sim.Node, round int) {
	sel := p.Select
	if sel == nil {
		sel = gossip.CyclonSelector
	}
	peer := sel(e, n, p.rng.For(e, 0xc0501))
	if peer < 0 {
		return
	}
	pmP := p.B.PM(n)
	pmQ := p.B.C.PMs[peer]
	p.updateState(e, n, pmP, pmQ, nil)
	p.updateState(e, e.Node(peer), pmQ, pmP, nil)
}

// PairSharded implements sim.PairRound. The topology-aware direction rule
// reads rack-global power state — beyond the two endpoints other pairs may
// be flipping concurrently — so it keeps the sequential path.
func (p *ConsolidateProtocol) PairSharded() bool { return p.Topo == nil }

// DrawPair implements sim.PairRound: exactly Round's peer draw.
func (p *ConsolidateProtocol) DrawPair(e *sim.Engine, n *sim.Node, round int) int {
	sel := p.Select
	if sel == nil {
		sel = gossip.CyclonSelector
	}
	return sel(e, n, p.rng.For(e, 0xc0501))
}

// BeginPairs implements sim.PairRound: size the per-pair accounting slots.
func (p *ConsolidateProtocol) BeginPairs(e *sim.Engine, round, npairs int) {
	if cap(p.accts) < npairs {
		p.accts = make([]dc.MigAcct, npairs)
	}
	p.accts = p.accts[:npairs]
}

// RunPair implements sim.PairRound: the push-pull exchange of Round with the
// cluster-global migration counters diverted into the pair's slot. All other
// writes are confined to the endpoint PMs and their hosted VMs.
func (p *ConsolidateProtocol) RunPair(e *sim.Engine, a, b *sim.Node, round, idx int) {
	acct := &p.accts[idx]
	pmP := p.B.PM(a)
	pmQ := p.B.C.PMs[b.ID]
	p.updateState(e, a, pmP, pmQ, acct)
	p.updateState(e, b, pmQ, pmP, acct)
}

// EndPairs implements sim.PairRound: fold the diverted accounting in draw
// order, reproducing the sequential ledger exactly for the same pair list.
func (p *ConsolidateProtocol) EndPairs(e *sim.Engine, round int) {
	for i := range p.accts {
		p.B.C.FoldMigAcct(&p.accts[i])
	}
}

// updateState runs Algorithm 3's UPDATESTATE for endpoint s against peer o:
// the shared direction rule decides the sender role, then the matching
// migration loop drives the shared π_out/π_in core via migrateOne.
func (p *ConsolidateProtocol) updateState(e *sim.Engine, n *sim.Node, s, o *dc.PM, acct *dc.MigAcct) {
	c := p.B.C
	if !s.On() || !o.On() {
		return
	}
	st := p.tables(e, n)
	mode := decision.Direction(pmView(c, s), pmView(c, o))
	// Under the topology extension, rack occupancy replaces the utilisation
	// rule across racks: the endpoint in the sparser rack is the sender, so
	// sparsely occupied racks drain completely and their switches sleep.
	if p.Topo != nil && mode != decision.ModeShed && !c.Overloaded(o) && !p.Topo.SameRack(s.ID, o.ID) {
		if p.topoSends(s, o) {
			mode = decision.ModeEmpty
		} else {
			mode = decision.ModeNone
		}
	}
	switch mode {
	case decision.ModeShed:
		// Shed VMs while overloaded (lines 12-13).
		for c.Overloaded(s) {
			if !p.migrateOne(st, s, o, acct) {
				return
			}
		}
	case decision.ModeEmpty:
		// The lower-utilisation endpoint empties itself (lines 14-16).
		for s.NumVMs() > 0 {
			if !p.migrateOne(st, s, o, acct) {
				return
			}
		}
		_ = p.B.TryPowerOffIfEmpty(s.ID)
	}
}

// topoSends applies the cross-rack direction override: the endpoint in the
// rack with fewer active machines sends; equal occupancy drains the
// higher-numbered rack toward the lower one — a fixed gradient that gives
// otherwise-symmetric racks a consistent draining order using only local
// information.
func (p *ConsolidateProtocol) topoSends(s, o *dc.PM) bool {
	sr, or := p.rackActive(s.ID), p.rackActive(o.ID)
	if sr != or {
		return sr < or
	}
	return p.Topo.RackOf(s.ID) > p.Topo.RackOf(o.ID)
}

// rackActive counts the powered PMs in pm's rack.
func (p *ConsolidateProtocol) rackActive(pm int) int {
	rack := p.Topo.RackOf(pm)
	lo := rack * p.Topo.PMsPerRack
	hi := lo + p.Topo.PMsPerRack
	if hi > len(p.B.C.PMs) {
		hi = len(p.B.C.PMs)
	}
	n := 0
	for i := lo; i < hi; i++ {
		if p.B.C.PMs[i].On() {
			n++
		}
	}
	return n
}

// migrateOne performs one MIGRATE() step (Algorithm 3, lines 18-24) from s
// to o and reports whether a VM moved: the shared π_out core picks the
// offer, the shared π_in core vets it — on the sender, on behalf of the
// target, against the target's live state and free capacity — and the
// migration executes on acceptance.
func (p *ConsolidateProtocol) migrateOne(st *NodeTables, s, o *dc.PM, acct *dc.MigAcct) bool {
	c := p.B.C
	off, ok := selectOffer(st.Out, p.pmState(c, s), s, p.vmAction)
	if !ok {
		return false
	}
	if !decision.VetOffer(st.In, p.pmState(c, o), off.Action, off.VM.CurAbs(), c.FreeCur(o)) {
		return false
	}
	return c.MigrateAcct(off.VM, o, acct) == nil
}

// InactiveSpan implements sim.QuiescentRound. The consolidation pass is
// provably inert for [from, to) — under the engine's proviso that demand is
// exactly constant and every other protocol is simultaneously quiet — when,
// from the current state:
//
//   - no powered PM is empty (an empty sender would power itself off);
//   - unless states are current-demand-only, every powered PM's and every
//     placed VM's average-demand levels match its current-demand levels:
//     the running average moves monotonically toward the constant current
//     value per component and the level buckets are intervals, so matching
//     levels persist for the whole span and every decision state is frozen;
//   - no admissible migration exists between any (sender, target) pair the
//     direction rule can produce. Both shed and empty migrations go through
//     the same migrateOne core, and π_out's offer is target-independent, so
//     each potential sender's offer is computed once from its own tables
//     and vetted against per-target-state buckets holding the
//     component-wise maximum free capacity over exactly the targets
//     direction admits for that sender: non-overloaded senders reach the
//     non-overloaded PMs above them in (utilisation, ID) order, while
//     overloaded senders shed toward every other powered PM. If even the
//     roomiest admissible target of every state rejects the offer, every
//     real target does too.
//
// An overloaded PM therefore does not by itself block certification: if its
// shed offer is inadmissible everywhere, the shed loop's first migrateOne
// fails and — with demand constant and no other migrations — it stays
// overloaded with the same inadmissible offer for the whole span. With no
// admissible offer anywhere, every exchange's first migrateOne fails and
// updateState returns before any state change, so the conditions themselves
// persist: the whole span is certified. The topology-aware rule adds
// rack-draining behaviour this certificate does not model, so it never
// certifies.
func (p *ConsolidateProtocol) InactiveSpan(e *sim.Engine, from, to int) int {
	if p.Topo != nil {
		return 0
	}
	c := p.B.C
	for _, pm := range c.PMs {
		if !pm.On() {
			continue
		}
		if pm.NumVMs() == 0 {
			return 0
		}
		if !p.CurrentDemandOnly && LevelsOf(c.AvgUtil(pm)) != LevelsOf(c.CurUtil(pm)) {
			return 0
		}
	}
	if !p.CurrentDemandOnly {
		for _, vm := range c.VMs {
			if vm.Host() < 0 {
				continue
			}
			if LevelsOf(vm.AvgDemand()) != LevelsOf(vm.CurDemand()) {
				return 0
			}
		}
	}
	// Direction (decision.Direction) totally orders the non-overloaded
	// powered PMs by (current mean utilisation, ID): an exchange only ever
	// moves VMs from the strictly lower-ranked endpoint toward a
	// higher-ranked one. Sweep the powered PMs from the top of that order
	// downward, maintaining per-target-state component-wise maxima of free
	// capacity over the PMs already passed — when a sender is vetted, the
	// maxima cover exactly the targets direction admits (and never the
	// sender itself). π_out's offer is target-independent, so it is computed
	// once per sender from the sender's own tables; if even the roomiest
	// admissible target of every state rejects it, every real target does
	// too. Mixing components from different targets only over-admits, which
	// keeps the bound conservative.
	order := make([]*sim.Node, 0, len(e.Nodes()))
	var over []*sim.Node
	for _, n := range e.Nodes() {
		pm := p.B.PM(n)
		if !pm.On() {
			continue
		}
		if c.Overloaded(pm) {
			over = append(over, n)
		} else {
			order = append(order, n)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		pi, pj := p.B.PM(order[i]), p.B.PM(order[j])
		ui, uj := c.CurUtil(pi).Avg(), c.CurUtil(pj).Avg()
		if ui != uj {
			return ui < uj
		}
		return pi.ID < pj.ID
	})
	maxFree := make(map[qlearn.State]dc.Vec)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		pm := p.B.PM(n)
		st := p.tables(e, n)
		if off, ok := selectOffer(st.Out, p.pmState(c, pm), pm, p.vmAction); ok {
			demand := off.VM.CurAbs()
			for state, free := range maxFree {
				if decision.VetOffer(st.In, state, off.Action, demand, free) {
					return 0
				}
			}
		}
		s := p.pmState(c, pm)
		free := c.FreeCur(pm)
		if have, ok := maxFree[s]; ok {
			for r := 0; r < dc.NumResources; r++ {
				if have[r] > free[r] {
					free[r] = have[r]
				}
			}
		}
		maxFree[s] = free
	}
	// After the sweep, maxFree covers every non-overloaded powered PM. An
	// overloaded PM sheds regardless of direction, so vet its offer against
	// those maxima plus each other overloaded PM pairwise (never itself).
	for _, n := range over {
		pm := p.B.PM(n)
		st := p.tables(e, n)
		off, ok := selectOffer(st.Out, p.pmState(c, pm), pm, p.vmAction)
		if !ok {
			continue
		}
		demand := off.VM.CurAbs()
		for state, free := range maxFree {
			if decision.VetOffer(st.In, state, off.Action, demand, free) {
				return 0
			}
		}
		for _, m := range over {
			if m == n {
				continue
			}
			opm := p.B.PM(m)
			if decision.VetOffer(st.In, p.pmState(c, opm), off.Action, demand, c.FreeCur(opm)) {
				return 0
			}
		}
	}
	return to - from
}
