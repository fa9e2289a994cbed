package glap

import (
	"math"
	"testing"

	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
)

// vectorFunc extracts a sparse vector from a node for similarity
// measurement; nodes returning nil are skipped (e.g. PMs that never ran the
// learning phase).
type vectorFunc[K comparable] func(e *sim.Engine, n *sim.Node) map[K]float64

// meanPairwiseCosine is the map-based form of meanPairwiseCosineDense and
// its oracle: the same holder scan and the same pair draws, with each pair's
// similarity taken over sparse maps. It returns 1 for fewer than two
// eligible nodes.
func meanPairwiseCosine[K comparable](e *sim.Engine, vec vectorFunc[K], pairs int, rng *sim.RNG) float64 {
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

func TestMeanPairwiseCosine(t *testing.T) {
	e := sim.NewEngine(6, 8)
	vecs := map[int]map[string]float64{
		0: {"a": 1, "b": 2},
		1: {"a": 1, "b": 2},
		2: {"a": 1, "b": 2},
		3: {"a": 1, "b": 2},
		4: {"a": 1, "b": 2},
		5: {"a": 1, "b": 2},
	}
	vf := func(e *sim.Engine, n *sim.Node) map[string]float64 { return vecs[n.ID] }
	rng := sim.NewRNG(9)
	if got := meanPairwiseCosine(e, vf, 32, rng); math.Abs(got-1) > 1e-9 {
		t.Fatalf("identical vectors similarity = %g", got)
	}
	// Orthogonal halves: mean similarity well below 1.
	for id := 3; id < 6; id++ {
		vecs[id] = map[string]float64{"c": 1}
	}
	if got := meanPairwiseCosine(e, vf, 256, rng); got > 0.8 {
		t.Fatalf("orthogonal halves similarity = %g", got)
	}
}

func TestMeanPairwiseCosineEdgeCases(t *testing.T) {
	e := sim.NewEngine(3, 10)
	rng := sim.NewRNG(1)
	// No holders at all: trivially converged.
	empty := func(e *sim.Engine, n *sim.Node) map[string]float64 { return nil }
	if got := meanPairwiseCosine(e, empty, 8, rng); got != 1 {
		t.Fatalf("no holders similarity = %g, want 1", got)
	}
	// Single holder.
	one := func(e *sim.Engine, n *sim.Node) map[string]float64 {
		if n.ID == 0 {
			return map[string]float64{"a": 1}
		}
		return nil
	}
	if got := meanPairwiseCosine(e, one, 8, rng); got != 1 {
		t.Fatalf("single holder similarity = %g, want 1", got)
	}
}

func TestMeanPairwiseCosineDense(t *testing.T) {
	e := sim.NewEngine(6, 8)
	vecs := make([][]float64, 6)
	for i := range vecs {
		vecs[i] = []float64{1, 2, 0}
	}
	vf := func(e *sim.Engine, n *sim.Node) []float64 { return vecs[n.ID] }
	rng := sim.NewRNG(9)
	if got := meanPairwiseCosineDense(e, vf, 32, rng); math.Abs(got-1) > 1e-9 {
		t.Fatalf("identical vectors similarity = %g", got)
	}
	// Orthogonal halves: mean similarity well below 1.
	for id := 3; id < 6; id++ {
		vecs[id] = []float64{0, 0, 1}
	}
	if got := meanPairwiseCosineDense(e, vf, 256, rng); got > 0.8 {
		t.Fatalf("orthogonal halves similarity = %g", got)
	}
}

func TestMeanPairwiseCosineDenseEdgeCases(t *testing.T) {
	e := sim.NewEngine(3, 10)
	rng := sim.NewRNG(1)
	empty := func(e *sim.Engine, n *sim.Node) []float64 { return nil }
	if got := meanPairwiseCosineDense(e, empty, 8, rng); got != 1 {
		t.Fatalf("no holders similarity = %g, want 1", got)
	}
	one := func(e *sim.Engine, n *sim.Node) []float64 {
		if n.ID == 0 {
			return []float64{1}
		}
		return nil
	}
	if got := meanPairwiseCosineDense(e, one, 8, rng); got != 1 {
		t.Fatalf("single holder similarity = %g, want 1", got)
	}
	// Down nodes are excluded like in the map-based variant.
	all := func(e *sim.Engine, n *sim.Node) []float64 { return []float64{1} }
	e.SetUp(e.Node(1), false)
	e.SetUp(e.Node(2), false)
	if got := meanPairwiseCosineDense(e, all, 8, rng); got != 1 {
		t.Fatalf("single up holder similarity = %g, want 1", got)
	}
}

// TestDenseMatchesMapCosine cross-checks the two instrumentation paths on
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
	mf := func(e *sim.Engine, n *sim.Node) map[int]float64 { return maps[n.ID] }
	df := func(e *sim.Engine, n *sim.Node) []float64 { return dense[n.ID] }
	for seed := uint64(1); seed <= 4; seed++ {
		got := meanPairwiseCosineDense(e, df, 200, sim.NewRNG(seed))
		want := meanPairwiseCosine(e, mf, 200, sim.NewRNG(seed))
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("seed %d: dense %g vs map %g", seed, got, want)
		}
	}
}

// BenchmarkMeanPairwiseCosineDense measures the full Figure 5 sample over
// 500 nodes holding GLAP-sized dense vectors (two 81×81 Q-tables).
func BenchmarkMeanPairwiseCosineDense(b *testing.B) {
	const ioCells = 2 * 81 * 81
	e := sim.NewEngine(500, 1)
	vecs := make([][]float64, 500)
	for i := range vecs {
		v := make([]float64, ioCells)
		for k := range v {
			v[k] = float64((i + k) % 301)
		}
		vecs[i] = v
	}
	vf := func(e *sim.Engine, n *sim.Node) []float64 { return vecs[n.ID] }
	rng := sim.NewRNG(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = meanPairwiseCosineDense(e, vf, 64, rng)
	}
}
