package glap

import (
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap/decision"
	"github.com/glap-sim/glap/internal/qlearn"
)

// This file adapts live cluster state to the pure decision core in
// internal/glap/decision. Both consolidation transports (the cycle-driven
// ConsolidateProtocol and the message-passing AsyncConsolidateProtocol)
// lower their endpoints through these helpers, so the decision arithmetic
// exists exactly once.

// DecisionPMState returns the calibrated decision state for a PM:
// average-demand based per Section IV-B, or current-demand only under the
// ablation switch.
func DecisionPMState(c *dc.Cluster, pm *dc.PM, currentOnly bool) qlearn.State {
	if currentOnly {
		return PMStateCur(c, pm)
	}
	return PMStateAvg(c, pm)
}

// DecisionVMAction returns the calibrated action for a VM under the active
// demand mode.
func DecisionVMAction(vm *dc.VM, currentOnly bool) qlearn.Action {
	if currentOnly {
		return LevelsOf(vm.CurDemand()).Action()
	}
	return VMAction(vm)
}

// pmView summarises a live PM for the direction rule.
func pmView(c *dc.Cluster, pm *dc.PM) decision.View {
	return decision.View{
		ID:         pm.ID,
		Overloaded: c.Overloaded(pm),
		Util:       c.CurUtil(pm).Avg(),
	}
}

// selectOffer lowers pm's live VM list into π_out. The list is read into a
// call-local stack buffer (AppendVMs spills to the heap past 64 VMs): the
// read is per exchange and nearly every exchange migrates nothing, so it must
// not build garbage, and a stack buffer serves both transports without
// either owning scratch.
func selectOffer(out *qlearn.Table, sender qlearn.State, pm *dc.PM, action func(*dc.VM) qlearn.Action) (decision.Offer, bool) {
	var buf [64]*dc.VM
	return decision.SelectOffer(out, sender, pm.AppendVMs(buf[:0]), action)
}
