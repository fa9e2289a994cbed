// Package gossip provides the peer selection the GLAP protocols gossip
// through and the convergence instrumentation (pairwise cosine similarity)
// used by the Figure 5 experiment.
package gossip

import (
	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/sim"
)

// PeerSelector picks a gossip partner for node n, returning -1 when none is
// available.
type PeerSelector func(e *sim.Engine, n *sim.Node, rng *sim.RNG) int

// CyclonSelector samples a live peer from the node's Cyclon view; it is the
// default selector for every protocol in this reproduction.
func CyclonSelector(e *sim.Engine, n *sim.Node, rng *sim.RNG) int {
	return cyclon.SelectPeer(e, n, rng)
}
