package gossip

import (
	"github.com/glap-sim/glap/internal/par"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
)

// VectorFunc extracts a sparse vector from a node for similarity
// measurement; nodes returning nil are skipped (e.g. PMs that never ran the
// learning phase).
type VectorFunc[K comparable] func(e *sim.Engine, n *sim.Node) map[K]float64

// MeanPairwiseCosine estimates how close the per-node vectors are to
// identical by averaging the cosine similarity over `pairs` random pairs of
// distinct up nodes with non-nil vectors. This is the convergence metric of
// the Figure 5 experiment. It returns 1 for fewer than two eligible nodes
// (a single holder is trivially converged).
func MeanPairwiseCosine[K comparable](e *sim.Engine, vec VectorFunc[K], pairs int, rng *sim.RNG) float64 {
	var holders []*sim.Node
	vecs := make(map[int]map[K]float64)
	for _, n := range e.Nodes() {
		if !n.Up() {
			continue
		}
		if v := vec(e, n); v != nil && len(v) > 0 {
			holders = append(holders, n)
			vecs[n.ID] = v
		}
	}
	if len(holders) < 2 {
		return 1
	}
	if pairs <= 0 {
		pairs = 64
	}
	sum, cnt := 0.0, 0
	for i := 0; i < pairs; i++ {
		a := holders[rng.Intn(len(holders))]
		b := holders[rng.Intn(len(holders))]
		if a.ID == b.ID {
			continue
		}
		sum += stats.CosineMaps(vecs[a.ID], vecs[b.ID])
		cnt++
	}
	if cnt == 0 {
		return 1
	}
	return sum / float64(cnt)
}

// DenseVectorFunc extracts a node's dense, aligned similarity vector; all
// nodes must use one layout (same length, same cell order). Nodes returning
// nil or empty are skipped. Convergence measurement runs every measured
// round over every node, so the dense form — typically a per-node reusable
// buffer over the calibrated Q space — replaces the per-sample map builds
// of VectorFunc with slice fills.
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

// MeanPairwiseCosineDense is MeanPairwiseCosine over aligned dense vectors:
// each sampled pair costs one dot-product scan, with no map allocation. Pair
// sampling stays sequential (the rng draw sequence is part of the golden
// fingerprint); the dot products fan out over the engine's workers and fold
// in sample order, bit-identical to the sequential loop.
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

// AllPairsCosineDense computes the exact mean pairwise cosine similarity
// over aligned dense vectors; O(n²) pairs, intended for small networks and
// tests.
func AllPairsCosineDense(e *sim.Engine, vec DenseVectorFunc) float64 {
	_, vecs := collectDense(e, vec)
	if len(vecs) < 2 {
		return 1
	}
	sum, cnt := 0.0, 0
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			sum += stats.CosineAligned(vecs[i], vecs[j])
			cnt++
		}
	}
	return sum / float64(cnt)
}

// AllPairsCosine computes the exact mean pairwise cosine similarity across
// all pairs of eligible nodes; O(n^2) and intended for small networks and
// tests.
func AllPairsCosine[K comparable](e *sim.Engine, vec VectorFunc[K]) float64 {
	var vecs []map[K]float64
	for _, n := range e.Nodes() {
		if !n.Up() {
			continue
		}
		if v := vec(e, n); v != nil && len(v) > 0 {
			vecs = append(vecs, v)
		}
	}
	if len(vecs) < 2 {
		return 1
	}
	sum, cnt := 0.0, 0
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			sum += stats.CosineMaps(vecs[i], vecs[j])
			cnt++
		}
	}
	return sum / float64(cnt)
}
