package metrics

import (
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/topology"
)

// NetworkSeries tracks the data center network's switch activity and energy
// under a topology model — the quantity the paper's future-work extension
// optimises.
type NetworkSeries struct {
	// SwitchPowerW is the instantaneous network power sampled at the end
	// of each round.
	SwitchPowerW []float64
	// ActiveEdge is the number of powered edge (top-of-rack) switches per
	// round.
	ActiveEdge []int
	// EnergyJ is the accumulated network energy over the run.
	EnergyJ float64
}

// AttachNetwork registers a per-round network observer for cluster c laid
// out as tree, using the given switch power model.
func AttachNetwork(e *sim.Engine, c *dc.Cluster, tree *topology.Tree, spec topology.SwitchSpec) *NetworkSeries {
	ns := &NetworkSeries{}
	pmOn := func(pm int) bool { return c.PMs[pm].On() }
	e.Observe(func(e *sim.Engine, round int) {
		p := tree.SwitchPowerW(pmOn, spec)
		edge, _, _ := tree.ActiveSwitches(pmOn)
		ns.SwitchPowerW = append(ns.SwitchPowerW, p)
		ns.ActiveEdge = append(ns.ActiveEdge, edge)
		ns.EnergyJ += p * dc.RoundSeconds
	})
	return ns
}

// EnergyKWh returns the accumulated network energy in kilowatt-hours, the
// unit the scenario reports share with the server-side TotalEnergyKWh.
func (ns *NetworkSeries) EnergyKWh() float64 { return ns.EnergyJ / 3.6e6 }

// MeanPowerW returns the average network power over the run.
func (ns *NetworkSeries) MeanPowerW() float64 {
	if len(ns.SwitchPowerW) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range ns.SwitchPowerW {
		sum += p
	}
	return sum / float64(len(ns.SwitchPowerW))
}
