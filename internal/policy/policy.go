// Package policy contains the glue shared by every consolidation protocol in
// this reproduction: the binding that couples a dc.Cluster to a sim.Engine
// (PM i is node i) and power management that keeps both views consistent.
package policy

import (
	"fmt"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/sim"
)

// Binding couples one cluster with one engine. Node IDs and PM IDs coincide.
type Binding struct {
	E *sim.Engine
	C *dc.Cluster
}

// Bind wires cluster c into engine e: a BeforeRound hook advances the
// workload so every protocol observes the current round's demand, and — for a
// streaming workload, whose samples cost a synthesis each — the engine's
// look-ahead runs c.Prefetch for the next round beside the current one's
// sequential passes. The cluster must have exactly as many PMs as the engine
// has nodes.
func Bind(e *sim.Engine, c *dc.Cluster) (*Binding, error) {
	if len(c.PMs) != e.N() {
		return nil, fmt.Errorf("policy: cluster has %d PMs but engine has %d nodes", len(c.PMs), e.N())
	}
	b := &Binding{E: e, C: c}
	e.BeforeRound(func(e *sim.Engine, round int) {
		c.AdvanceRound(round)
	})
	if c.Workload().Streaming() {
		e.LookAhead(c.Prefetch)
	}
	return b, nil
}

// PM returns the PM bound to node n.
func (b *Binding) PM(n *sim.Node) *dc.PM { return b.C.PMs[n.ID] }

// PowerOff switches PM id off in both the cluster and the overlay. It fails
// when the PM still hosts VMs.
func (b *Binding) PowerOff(id int) error {
	if err := b.C.SetPMOn(b.C.PMs[id], false); err != nil {
		return err
	}
	b.E.SetUp(b.E.Node(id), false)
	return nil
}

// PowerOn switches PM id back on in both views.
func (b *Binding) PowerOn(id int) {
	_ = b.C.SetPMOn(b.C.PMs[id], true) // powering on never fails
	b.E.SetUp(b.E.Node(id), true)
}

// TryPowerOffIfEmpty powers the PM off when it hosts no VMs and reports
// whether it did.
func (b *Binding) TryPowerOffIfEmpty(id int) bool {
	if b.C.PMs[id].NumVMs() != 0 {
		return false
	}
	return b.PowerOff(id) == nil
}
