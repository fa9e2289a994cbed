package glap

import (
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
	p.updateState(e, n, pmP, pmQ)
	p.updateState(e, e.Node(peer), pmQ, pmP)
}

// updateState runs Algorithm 3's UPDATESTATE for endpoint s against peer o:
// the shared direction rule decides the sender role, then the matching
// migration loop drives the shared π_out/π_in core via migrateOne.
func (p *ConsolidateProtocol) updateState(e *sim.Engine, n *sim.Node, s, o *dc.PM) {
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
			if !p.migrateOne(st, s, o) {
				return
			}
		}
	case decision.ModeEmpty:
		// The lower-utilisation endpoint empties itself (lines 14-16).
		for s.NumVMs() > 0 {
			if !p.migrateOne(st, s, o) {
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
func (p *ConsolidateProtocol) migrateOne(st *NodeTables, s, o *dc.PM) bool {
	c := p.B.C
	off, ok := selectOffer(st.Out, p.pmState(c, s), s, p.vmAction)
	if !ok {
		return false
	}
	if !decision.VetOffer(st.In, p.pmState(c, o), off.Action, off.VM.CurAbs(), c.FreeCur(o)) {
		return false
	}
	return c.Migrate(off.VM, o) == nil
}
