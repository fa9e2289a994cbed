// Package topology models the data center network as the classic
// three-tier tree (top-of-rack/edge switches, aggregation switches per pod,
// a core layer) and provides the switch power accounting needed by the
// paper's stated future work: "extend the algorithm to be aware of the
// network topology such that it will switch off network switches, an
// important factor of energy consumption in cloud data centers."
//
// The model supplies three things to the consolidation layer:
//
//  1. locality — which PMs share a rack or pod;
//  2. migration bandwidth — cross-rack and cross-pod transfers traverse
//     oversubscribed links and are slower (hence costlier, per Eq. 3);
//  3. switch energy — an edge switch can sleep when its whole rack is off,
//     an aggregation switch when its whole pod is off.
package topology

import "fmt"

// Tree is a three-tier data center network over a dense PM id space.
type Tree struct {
	// PMsPerRack is the number of PMs under one edge (top-of-rack) switch.
	PMsPerRack int
	// RacksPerPod is the number of racks under one aggregation switch.
	RacksPerPod int

	nPMs int
}

// New builds a tree over nPMs machines. The last rack and pod may be
// partially filled.
func New(nPMs, pmsPerRack, racksPerPod int) (*Tree, error) {
	if nPMs <= 0 {
		return nil, fmt.Errorf("topology: nPMs must be positive, got %d", nPMs)
	}
	if pmsPerRack <= 0 || racksPerPod <= 0 {
		return nil, fmt.Errorf("topology: rack/pod sizes must be positive, got %d/%d", pmsPerRack, racksPerPod)
	}
	return &Tree{PMsPerRack: pmsPerRack, RacksPerPod: racksPerPod, nPMs: nPMs}, nil
}

// RackOf returns the rack index of PM id.
func (t *Tree) RackOf(pm int) int { return pm / t.PMsPerRack }

// PodOf returns the pod index of PM id.
func (t *Tree) PodOf(pm int) int { return t.RackOf(pm) / t.RacksPerPod }

// NumRacks returns the number of (possibly partial) racks.
func (t *Tree) NumRacks() int { return (t.nPMs + t.PMsPerRack - 1) / t.PMsPerRack }

// NumPods returns the number of (possibly partial) pods.
func (t *Tree) NumPods() int { return (t.NumRacks() + t.RacksPerPod - 1) / t.RacksPerPod }

// SameRack reports whether two PMs share an edge switch.
func (t *Tree) SameRack(a, b int) bool { return t.RackOf(a) == t.RackOf(b) }

// SamePod reports whether two PMs share an aggregation switch.
func (t *Tree) SamePod(a, b int) bool { return t.PodOf(a) == t.PodOf(b) }

// Distance returns the switch hop count of the path between two PMs:
// 0 for the same PM, 2 within a rack (up and down through the ToR),
// 4 within a pod, 6 across pods (through the core).
func (t *Tree) Distance(a, b int) int {
	switch {
	case a == b:
		return 0
	case t.SameRack(a, b):
		return 2
	case t.SamePod(a, b):
		return 4
	default:
		return 6
	}
}

// LatencyFactor returns the network delay multiplier for a message between
// two PMs, derived from hop count: 1 within a rack, 2 across racks in a
// pod, 3 across pods. It scales NetConfig's base one-way latency so that
// topology-aware runs pay propagation cost proportional to path length.
func (t *Tree) LatencyFactor(a, b int) int64 {
	switch t.Distance(a, b) {
	case 0, 2:
		return 1
	case 4:
		return 2
	default:
		return 3
	}
}

// BandwidthFactor returns the fraction of edge bandwidth available to a
// transfer between two PMs under the conventional 1:2.5 per-tier
// oversubscription of three-tier designs: full bandwidth within a rack,
// 40% across racks in a pod, 16% across pods.
func (t *Tree) BandwidthFactor(a, b int) float64 {
	switch t.Distance(a, b) {
	case 0, 2:
		return 1
	case 4:
		return 0.4
	default:
		return 0.16
	}
}

// SwitchSpec holds the power draw of each switch tier. The defaults follow
// commonly cited figures for data-center studies (ToR ~150 W, aggregation
// ~300 W, core ~600 W).
type SwitchSpec struct {
	EdgeW float64
	AggW  float64
	CoreW float64
}

// DefaultSwitchSpec is the power model used by the topology experiments.
var DefaultSwitchSpec = SwitchSpec{EdgeW: 150, AggW: 300, CoreW: 600}

// ActiveSwitches counts the switches that must stay powered given the
// per-PM power state: an edge switch sleeps when every PM in its rack is
// off, an aggregation switch when every rack in its pod sleeps, and the
// (single, modelled) core layer stays up while any pod is active.
func (t *Tree) ActiveSwitches(pmOn func(pm int) bool) (edge, agg, core int) {
	rackUp := make([]bool, t.NumRacks())
	for pm := 0; pm < t.nPMs; pm++ {
		if pmOn(pm) {
			rackUp[t.RackOf(pm)] = true
		}
	}
	podUp := make([]bool, t.NumPods())
	for rack, up := range rackUp {
		if up {
			edge++
			podUp[rack/t.RacksPerPod] = true
		}
	}
	for _, up := range podUp {
		if up {
			agg++
			core = 1
		}
	}
	return edge, agg, core
}

// SwitchPowerW returns the instantaneous network power draw under the given
// PM power state.
func (t *Tree) SwitchPowerW(pmOn func(pm int) bool, spec SwitchSpec) float64 {
	edge, agg, core := t.ActiveSwitches(pmOn)
	return float64(edge)*spec.EdgeW + float64(agg)*spec.AggW + float64(core)*spec.CoreW
}
