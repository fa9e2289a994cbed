package glap

import (
	"math"
	"testing"

	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
)

// meanPairwiseCosine is the map-based form of meanPairwiseCosineDense and
// its oracle over vecs, indexed by node ID: every up node with a non-empty
// map holds, the pair draws are the same, and each pair's similarity is
// taken over sparse maps. It returns 1 for fewer than two holders.
func meanPairwiseCosine[K comparable](e *sim.Engine, vecs []map[K]float64, pairs int, rng *sim.RNG) float64 {
	var holders []*sim.Node
	for _, n := range e.Nodes() {
		if n.Up() && len(vecs[n.ID]) > 0 {
			holders = append(holders, n)
		}
	}
	if len(holders) < 2 {
		return 1
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

func TestMeanPairwiseCosine(t *testing.T) {
	e := sim.NewEngine(6, 8)
	vecs := make([]map[string]float64, 6)
	for i := range vecs {
		vecs[i] = map[string]float64{"a": 1, "b": 2}
	}
	rng := sim.NewRNG(9)
	if got := meanPairwiseCosine(e, vecs, 32, rng); math.Abs(got-1) > 1e-9 {
		t.Fatalf("identical vectors similarity = %g", got)
	}
	// Orthogonal halves: mean similarity well below 1.
	for id := 3; id < 6; id++ {
		vecs[id] = map[string]float64{"c": 1}
	}
	if got := meanPairwiseCosine(e, vecs, 256, rng); got > 0.8 {
		t.Fatalf("orthogonal halves similarity = %g", got)
	}
}

func TestMeanPairwiseCosineEdgeCases(t *testing.T) {
	e := sim.NewEngine(3, 10)
	rng := sim.NewRNG(1)
	// No holders at all: trivially converged.
	vecs := make([]map[string]float64, 3)
	if got := meanPairwiseCosine(e, vecs, 8, rng); got != 1 {
		t.Fatalf("no holders similarity = %g, want 1", got)
	}
	vecs[0] = map[string]float64{"a": 1}
	if got := meanPairwiseCosine(e, vecs, 8, rng); got != 1 {
		t.Fatalf("single holder similarity = %g, want 1", got)
	}
}

// sliceProbe is a cosineProbe over fixed per-node vectors of length dim: a
// node holds when its vector is non-nil, and a fill copies it.
func sliceProbe(vecs [][]float64, dim int) *cosineProbe {
	return &cosineProbe{
		holds: func(e *sim.Engine, n *sim.Node) bool { return vecs[n.ID] != nil },
		fill:  func(e *sim.Engine, n *sim.Node, dst []float64) { copy(dst, vecs[n.ID]) },
		a:     make([]float64, dim),
		b:     make([]float64, dim),
	}
}

func TestMeanPairwiseCosineDense(t *testing.T) {
	e := sim.NewEngine(6, 8)
	vecs := make([][]float64, 6)
	for i := range vecs {
		vecs[i] = []float64{1, 2, 0}
	}
	p := sliceProbe(vecs, 3)
	rng := sim.NewRNG(9)
	if got := p.meanPairwiseCosineDense(e, 32, rng); math.Abs(got-1) > 1e-9 {
		t.Fatalf("identical vectors similarity = %g", got)
	}
	// Orthogonal halves: mean similarity well below 1.
	for id := 3; id < 6; id++ {
		vecs[id] = []float64{0, 0, 1}
	}
	if got := p.meanPairwiseCosineDense(e, 256, rng); got > 0.8 {
		t.Fatalf("orthogonal halves similarity = %g", got)
	}
}

func TestMeanPairwiseCosineDenseEdgeCases(t *testing.T) {
	e := sim.NewEngine(3, 10)
	rng := sim.NewRNG(1)
	vecs := make([][]float64, 3)
	p := sliceProbe(vecs, 1)
	if got := p.meanPairwiseCosineDense(e, 8, rng); got != 1 {
		t.Fatalf("no holders similarity = %g, want 1", got)
	}
	vecs[0] = []float64{1}
	if got := p.meanPairwiseCosineDense(e, 8, rng); got != 1 {
		t.Fatalf("single holder similarity = %g, want 1", got)
	}
	// Down nodes are excluded like in the map-based variant.
	vecs[1], vecs[2] = []float64{1}, []float64{1}
	e.SetUp(e.Node(1), false)
	e.SetUp(e.Node(2), false)
	if got := p.meanPairwiseCosineDense(e, 8, rng); got != 1 {
		t.Fatalf("single up holder similarity = %g, want 1", got)
	}
}

// TestDenseMatchesMapCosine cross-checks the probe against the map oracle on
// identical data: the dense vectors are the map vectors laid out over a
// fixed index space, and both paths draw the same pairs from equally seeded
// streams, so the sampled similarity must agree to float rounding — with a
// down node and a node holding nothing, which both paths must skip alike.
func TestDenseMatchesMapCosine(t *testing.T) {
	const dim = 64
	e := sim.NewEngine(8, 13)
	rng := sim.NewRNG(17)
	maps := make([]map[int]float64, 8)
	dense := make([][]float64, 8)
	for i := range maps {
		maps[i] = make(map[int]float64)
		dense[i] = make([]float64, dim)
		for k := 0; k < dim; k++ {
			if rng.Float64() < 0.4 {
				v := rng.Float64()*4 - 2
				maps[i][k] = v
				dense[i][k] = v
			}
		}
	}
	maps[5], dense[5] = nil, nil
	e.SetUp(e.Node(2), false)
	p := sliceProbe(dense, dim)
	for seed := uint64(1); seed <= 4; seed++ {
		got := p.meanPairwiseCosineDense(e, 200, sim.NewRNG(seed))
		want := meanPairwiseCosine(e, maps, 200, sim.NewRNG(seed))
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("seed %d: dense %g vs map %g", seed, got, want)
		}
	}
}

// TestCosineProbeFillsOnlyDrawnPairs counts the probe's fills: each drawn
// pair of distinct holders fills its two nodes once each, and no other node
// (never drawn, down, or holding nothing) is filled. The expected counts
// replay the draws on an equally seeded stream over the holders in node
// order.
func TestCosineProbeFillsOnlyDrawnPairs(t *testing.T) {
	const nodes, pairs = 100, 6
	e := sim.NewEngine(nodes, 3)
	vecs := make([][]float64, nodes)
	var holders []int
	for i := range vecs {
		if i%7 != 3 {
			vecs[i] = []float64{1, float64(i)}
		}
		if i == 4 || i == 50 || i == 51 {
			e.SetUp(e.Node(i), false)
		} else if vecs[i] != nil {
			holders = append(holders, i)
		}
	}
	p := sliceProbe(vecs, 2)
	fills, fill := make([]int, nodes), p.fill
	p.fill = func(e *sim.Engine, n *sim.Node, dst []float64) { fills[n.ID]++; fill(e, n, dst) }
	for seed := uint64(1); seed <= 5; seed++ {
		clear(fills)
		p.meanPairwiseCosineDense(e, pairs, sim.NewRNG(seed))
		want, replay := make([]int, nodes), sim.NewRNG(seed)
		for i := 0; i < pairs; i++ {
			if a, b := holders[replay.Intn(len(holders))], holders[replay.Intn(len(holders))]; a != b {
				want[a]++
				want[b]++
			}
		}
		for id := range fills {
			if fills[id] != want[id] {
				t.Fatalf("seed %d: node %d filled %d times, its draws want %d", seed, id, fills[id], want[id])
			}
		}
	}
}

// BenchmarkMeanPairwiseCosineDense measures the full Figure 5 sample over
// 500 nodes holding GLAP-sized dense vectors (two 81×81 Q-tables), each
// synthesised by the fill.
func BenchmarkMeanPairwiseCosineDense(b *testing.B) {
	e := sim.NewEngine(500, 1)
	p := &cosineProbe{
		holds: func(e *sim.Engine, n *sim.Node) bool { return true },
		fill: func(e *sim.Engine, n *sim.Node, dst []float64) {
			for k := range dst {
				dst[k] = float64((n.ID + k) % 301)
			}
		},
		a: make([]float64, IOVecLen),
		b: make([]float64, IOVecLen),
	}
	rng := sim.NewRNG(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.meanPairwiseCosineDense(e, measurePairs, rng)
	}
}
