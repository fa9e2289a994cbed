package glap

import (
	"math"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap/decision"
	"github.com/glap-sim/glap/internal/qlearn"
)

// This file adapts live cluster state to the pure decision core in
// internal/glap/decision. Both consolidation transports (the cycle-driven
// ConsolidateProtocol and the message-passing AsyncConsolidateProtocol)
// lower their endpoints through these helpers, so the decision arithmetic
// exists exactly once.

// calibrations holds one boundary table (calibration) per distinct PM
// capacity a protocol has calibrated a state against: one on a homogeneous
// cluster, one per hardware model on a heterogeneous one.
type calibrations []calibration

// of returns the boundary table of capacity cp, building it on first use.
// Capacities match by bit pattern, so that even a NaN capacity finds its
// table again instead of adding one per call.
func (cs *calibrations) of(cp dc.Vec) *calibration {
	for i := range *cs {
		if c := &(*cs)[i]; math.Float64bits(c.cap[dc.CPU]) == math.Float64bits(cp[dc.CPU]) &&
			math.Float64bits(c.cap[dc.Mem]) == math.Float64bits(cp[dc.Mem]) {
			return c
		}
	}
	*cs = append(*cs, calibrationFor(cp))
	return &(*cs)[len(*cs)-1]
}

// pmState returns the calibrated decision state for a PM: average-demand
// based per Section IV-B, or current-demand only under the ablation switch.
// It calibrates the PM's demand sum through its capacity's boundary table,
// which is exactly LevelsOf(c.AvgUtil(pm)).State() (CurUtil under the
// switch) without the divide.
func (cs *calibrations) pmState(c *dc.Cluster, pm *dc.PM, currentOnly bool) qlearn.State {
	sum := c.AvgSum(pm)
	if currentOnly {
		sum = c.CurSum(pm)
	}
	return cs.of(pm.Spec.Capacity).state(sum)
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

// verdict is how far one MIGRATE() decision got.
type verdict uint8

const (
	// noOffer: the sender hosts no VM, so π_out has nothing to offer.
	noOffer verdict = iota
	// inVeto: π_in refused π_out's action in the target's state.
	inVeto
	// offered: π_in accepted; the capacity test is the caller's.
	offered
)

// offerFor runs one MIGRATE() decision from sender pm up to the capacity
// test, in the order that lets a vetoed exchange stop early: π_out's action
// over φ^out in the sender's state, π_in over φ^in in the target's state,
// and only then the cheapest VM of that action. π_in reads the action alone,
// so the outcome is the one π_out-then-π_in reaches. The VM list
// and its actions are read into call-local stack buffers (spilling to the
// heap past 64 VMs): nearly every exchange migrates nothing, so the read
// must not build garbage, and stack buffers serve both transports without
// either owning scratch.
func offerFor(t *NodeTables, pm *dc.PM, sender, target qlearn.State, action func(*dc.VM) qlearn.Action) (decision.Offer, verdict) {
	var vmsBuf [64]*dc.VM
	var actsBuf [64]qlearn.Action
	vms := pm.AppendVMs(vmsBuf[:0])
	a, acts, ok := decision.BestAction(t.Out, sender, vms, action, actsBuf[:0])
	if !ok {
		return decision.Offer{}, noOffer
	}
	if !decision.AcceptIn(t.In, target, a) {
		return decision.Offer{Action: a}, inVeto
	}
	return decision.Offer{VM: decision.CheapestVM(vms, acts, a), Action: a}, offered
}

// DecisionCounts tallies Algorithm 3's outcomes in one consolidation
// protocol. The counts are plain integers: the protocols bump them on the
// round path, which allocates nothing.
type DecisionCounts struct {
	// None, Empty and Shed count the direction rule's modes, one per
	// endpoint that decides with both endpoints powered.
	None, Empty, Shed int64
	// NoOffer counts MIGRATE() attempts on a sender without VMs; InVeto
	// those π_in refused and CapVeto those the capacity test refused — on
	// the sender, or (async) on the target's re-vet; MigrateErr accepted
	// migrations the cluster could not carry out; Migrated the VMs moved.
	NoOffer, InVeto, CapVeto, MigrateErr, Migrated int64
	// OfferTimeout counts offers whose every attempt went unanswered, and
	// Lost state exchanges whose reply never came. Only the message-passing
	// protocol counts them.
	OfferTimeout, Lost int64
}

// Decisions is a consolidation protocol's decision histogram: the outcomes
// of rounds before Split land in Early, the rest in Late. The caller names
// Split before the run.
type Decisions struct {
	Split       int
	Early, Late DecisionCounts
}

// at returns the bucket of round r.
func (d *Decisions) at(r int) *DecisionCounts {
	if r < d.Split {
		return &d.Early
	}
	return &d.Late
}

// mode counts one direction-rule verdict.
func (k *DecisionCounts) mode(m decision.Mode) {
	switch m {
	case decision.ModeShed:
		k.Shed++
	case decision.ModeEmpty:
		k.Empty++
	default:
		k.None++
	}
}
