package gossip

import (
	"github.com/glap-sim/glap/internal/par"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
)

// DenseVectorFunc extracts a node's dense, aligned similarity vector; all
// nodes must use one layout (same length, same cell order). Nodes returning
// nil or empty are skipped. Convergence measurement runs every measured
// round over every node, so the dense form is typically a per-node reusable
// buffer over the calibrated Q space, filled in place rather than rebuilt.
type DenseVectorFunc func(e *sim.Engine, n *sim.Node) []float64

// collectDense gathers the eligible nodes' dense vectors, indexed alongside
// holders. Vector extraction fans out over the engine's workers — vec fills
// the node's own buffer, a node-local write under the ParallelRound rules —
// and the compaction that follows is sequential in node order, so the holder
// list is identical for every worker count.
func collectDense(e *sim.Engine, vec DenseVectorFunc) ([]*sim.Node, [][]float64) {
	nodes := e.Nodes()
	byNode := make([][]float64, len(nodes))
	par.ForChunks(len(nodes), 64, e.Workers, func(lo, hi int) {
		for i, n := range nodes[lo:hi] {
			if !n.Up() {
				continue
			}
			if v := vec(e, n); len(v) > 0 {
				byNode[lo+i] = v
			}
		}
	})
	var holders []*sim.Node
	var vecs [][]float64
	for i, v := range byNode {
		if v != nil {
			holders = append(holders, nodes[i])
			vecs = append(vecs, v)
		}
	}
	return holders, vecs
}

// MeanPairwiseCosineDense estimates how close the per-node vectors are to
// identical by averaging the cosine similarity over `pairs` random pairs of
// distinct up nodes with non-empty vectors. This is the convergence metric of
// the Figure 5 experiment. It returns 1 for fewer than two eligible nodes (a
// single holder is trivially converged). Each sampled pair costs one
// dot-product scan. Pair sampling stays sequential (the rng draw sequence is
// part of the golden fingerprint); the dot products fan out over the
// engine's workers and fold in sample order, bit-identical to the sequential
// loop.
func MeanPairwiseCosineDense(e *sim.Engine, vec DenseVectorFunc, pairs int, rng *sim.RNG) float64 {
	holders, vecs := collectDense(e, vec)
	if len(holders) < 2 {
		return 1
	}
	if pairs <= 0 {
		pairs = 64
	}
	type pair struct{ a, b int }
	sampled := make([]pair, 0, pairs)
	for i := 0; i < pairs; i++ {
		a := rng.Intn(len(holders))
		b := rng.Intn(len(holders))
		if holders[a].ID == holders[b].ID {
			continue
		}
		sampled = append(sampled, pair{a, b})
	}
	if len(sampled) == 0 {
		return 1
	}
	sum := par.OrderedSum(len(sampled), 8, e.Workers, func(i int) float64 {
		return stats.CosineAligned(vecs[sampled[i].a], vecs[sampled[i].b])
	})
	return sum / float64(len(sampled))
}
