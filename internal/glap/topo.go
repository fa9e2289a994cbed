package glap

import (
	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/topology"
)

// Tier weights: mostly rack-local pairs, but enough same-pod and cross-pod
// pairings that residual VMs in nearly-empty racks can still drain away and
// whole racks switch off. A strict rack-first preference would trap one
// partially-filled PM per rack and keep every edge switch powered.
const (
	pSameRack = 0.60
	pSamePod  = 0.25
)

// LocalitySelector implements the paper's future-work extension at the peer
// sampling layer: gossip partners are drawn from the Cyclon view with a
// strict preference for PMs in the same rack, then the same pod, then
// anywhere. Consolidation pairs therefore form inside racks first, so VMs
// drain toward rack-local machines, whole racks empty, and their edge
// switches can sleep — while cross-rack migrations (slow and costly under
// oversubscription) become rare.
//
// The selector only reorders candidates the overlay already provides; the
// overlay itself remains the uniform Cyclon graph, so convergence of the
// learning and aggregation phases is unaffected.
func LocalitySelector(tree *topology.Tree) PeerSelector {
	return func(e *sim.Engine, n *sim.Node, rng *sim.RNG) int {
		view := cyclon.ViewOf(e, n)
		var sameRack, samePod, other []int
		for _, entry := range view.Entries() {
			if !e.Node(entry.Peer).Up() {
				continue
			}
			switch {
			case tree.SameRack(n.ID, entry.Peer):
				sameRack = append(sameRack, entry.Peer)
			case tree.SamePod(n.ID, entry.Peer):
				samePod = append(samePod, entry.Peer)
			default:
				other = append(other, entry.Peer)
			}
		}
		tiers := [][]int{sameRack, samePod, other}
		u := rng.Float64()
		var order []int
		switch {
		case u < pSameRack:
			order = []int{0, 1, 2}
		case u < pSameRack+pSamePod:
			order = []int{1, 0, 2}
		default:
			order = []int{2, 1, 0}
		}
		for _, i := range order {
			if len(tiers[i]) > 0 {
				return tiers[i][rng.Intn(len(tiers[i]))]
			}
		}
		return -1
	}
}

// BandwidthModel adapts a topology tree to the cluster's migration
// bandwidth hook: edge bandwidth scaled by the oversubscription factor of
// the path between the two machines.
func BandwidthModel(tree *topology.Tree, edgeMBps float64) func(src, dst int) float64 {
	return func(src, dst int) float64 {
		return edgeMBps * tree.BandwidthFactor(src, dst)
	}
}
