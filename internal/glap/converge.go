package glap

import (
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
)

// measurePairs is the number of random node pairs per convergence sample.
const measurePairs = 64

// cosineProbe is the convergence sampler's view of the nodes. holds reports
// whether an up node has a vector to compare; cosine returns the similarity
// of two holders' vectors, every node's in one aligned layout. A sample reads
// only the nodes it draws.
type cosineProbe struct {
	holds   func(e *sim.Engine, n *sim.Node) bool
	cosine  func(e *sim.Engine, a, b *sim.Node) float64
	holders []*sim.Node
}

// ioProbe samples φ^io. Nodes with empty tables are excluded from similarity
// measurement, matching the paper's remark that PMs lacking resources may
// own no Q-values after the learning phase.
func ioProbe() *cosineProbe {
	return &cosineProbe{
		holds: func(e *sim.Engine, n *sim.Node) bool {
			t := TablesOf(e, n)
			return t.Out.Len()+t.In.Len() > 0
		},
		cosine: func(e *sim.Engine, a, b *sim.Node) float64 { return ioCosine(TablesOf(e, a), TablesOf(e, b)) },
	}
}

// ioCosine is stats.CosineAligned of the two stores' φ^io vectors (IOVec),
// bit for bit, summed off their cell arrays instead of two 13,122-cell
// dense fills: φ^out's cells, then φ^in's, each in index order (see
// qlearn.CosineSums).
func ioCosine(a, b *NodeTables) float64 {
	dot, na, nb := qlearn.CosineSums(a.Out, b.Out, 0, 0, 0)
	dot, na, nb = qlearn.CosineSums(a.In, b.In, dot, na, nb)
	return stats.CosineFromSums(dot, na, nb)
}

// meanPairwiseCosineDense estimates how close the per-node vectors are to
// identical by averaging the cosine similarity over `pairs` random pairs of
// distinct up holders. This is the convergence metric of the Figure 5
// experiment, sampled by Pretrain over ioProbe. It returns 1 for fewer than
// two holders (a single holder is trivially converged). Each drawn pair
// costs one cosine, and the cosines are summed in draw order, so a sample is
// a function of the tables and rng alone.
func (p *cosineProbe) meanPairwiseCosineDense(e *sim.Engine, pairs int, rng *sim.RNG) float64 {
	p.holders = p.holders[:0]
	for _, n := range e.Nodes() {
		if n.Up() && p.holds(e, n) {
			p.holders = append(p.holders, n)
		}
	}
	if len(p.holders) < 2 {
		return 1
	}
	sum, cnt := 0.0, 0
	for i := 0; i < pairs; i++ {
		a := p.holders[rng.Intn(len(p.holders))]
		b := p.holders[rng.Intn(len(p.holders))]
		if a.ID == b.ID {
			continue
		}
		sum += p.cosine(e, a, b)
		cnt++
	}
	if cnt == 0 {
		return 1
	}
	return sum / float64(cnt)
}
