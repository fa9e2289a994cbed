// Package grmp implements the GRMP-style baseline of the evaluation: the
// aggressive, fully distributed gossip consolidation protocol of Wuhib,
// Yanggratoke and Stadler ("Allocating compute and network resources under
// management objectives in large-scale clouds", JNSM 2015), as configured in
// the paper's comparison — pairwise gossip exchanges in which the less
// utilised endpoint empties itself into the other up to a static upper
// threshold of 0.8, treating consolidation as multi-dimensional bin packing
// of the *current* demand without any model of future load.
package grmp

import (
	"sort"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/gossip"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
)

// ProtocolName registers the GRMP baseline.
const ProtocolName = "grmp"

// Protocol is the GRMP baseline consolidation protocol.
type Protocol struct {
	B *policy.Binding
	// Threshold is the static upper utilisation bound for accepting VMs
	// (the paper configures 0.8).
	Threshold float64
	// Select overrides the peer selector (defaults to Cyclon sampling).
	Select gossip.PeerSelector

	rng sim.BoundRNG
}

// New returns the baseline with the paper's static 0.8 threshold.
func New(b *policy.Binding) *Protocol {
	return &Protocol{B: b, Threshold: 0.8}
}

// Name implements sim.Protocol.
func (g *Protocol) Name() string { return ProtocolName }

// Setup implements sim.Protocol.
func (g *Protocol) Setup(e *sim.Engine, n *sim.Node) any {
	return struct{}{}
}

// Round implements one gossip exchange: the endpoints compare current
// utilisation and the lower one aggressively migrates VMs into the other,
// stopping only at the 0.8 threshold; an overloaded endpoint sheds first.
func (g *Protocol) Round(e *sim.Engine, n *sim.Node, round int) {
	sel := g.Select
	if sel == nil {
		sel = gossip.CyclonSelector
	}
	peer := sel(e, n, g.rng.For(e, 0x62e3))
	if peer < 0 {
		return
	}
	pmP := g.B.PM(n)
	pmQ := g.B.C.PMs[peer]
	g.updateState(pmP, pmQ)
	g.updateState(pmQ, pmP)
}

func (g *Protocol) updateState(s, o *dc.PM) {
	c := g.B.C
	if !s.On() || !o.On() {
		return
	}
	if c.Overloaded(s) {
		for c.Overloaded(s) {
			if !g.migrateOne(s, o) {
				return
			}
		}
		return
	}
	su, ou := c.CurUtil(s).Avg(), c.CurUtil(o).Avg()
	if su > ou || (su == ou && s.ID > o.ID) || c.Overloaded(o) {
		return
	}
	for s.NumVMs() > 0 {
		if !g.migrateOne(s, o) {
			return
		}
	}
	_ = g.B.TryPowerOffIfEmpty(s.ID)
}

// migrateOne moves the largest movable VM from s to o provided o stays at or
// below the static threshold on every resource under *current* demand — the
// exact check that makes GRMP blind to demand growth.
func (g *Protocol) migrateOne(s, o *dc.PM) bool {
	c := g.B.C
	vms := s.AppendVMs(nil)
	if len(vms) == 0 {
		return false
	}
	// Largest current CPU demand first: pack big items early, as bin
	// packing heuristics do.
	sort.Slice(vms, func(i, j int) bool {
		return vms[i].CurAbs()[dc.CPU] > vms[j].CurAbs()[dc.CPU]
	})
	oUtil := c.CurUtil(o)
	for _, vm := range vms {
		after := oUtil.Add(vm.CurAbs().Div(o.Spec.Capacity))
		if after[dc.CPU] <= g.Threshold && after[dc.Mem] <= g.Threshold {
			return c.Migrate(vm, o) == nil
		}
	}
	return false
}
