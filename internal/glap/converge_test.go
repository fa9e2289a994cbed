package glap

import (
	"fmt"
	"math"
	"testing"

	"github.com/glap-sim/glap/internal/qlearn"
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

// sliceProbe is a cosineProbe over fixed per-node vectors of one length: a
// node holds when its vector is non-nil, and a pair's cosine is
// stats.CosineAligned of the two.
func sliceProbe(vecs [][]float64) *cosineProbe {
	return &cosineProbe{
		holds: func(e *sim.Engine, n *sim.Node) bool { return vecs[n.ID] != nil },
		cosine: func(e *sim.Engine, a, b *sim.Node) float64 {
			return stats.CosineAligned(vecs[a.ID], vecs[b.ID])
		},
	}
}

func TestMeanPairwiseCosineDense(t *testing.T) {
	e := sim.NewEngine(6, 8)
	vecs := make([][]float64, 6)
	for i := range vecs {
		vecs[i] = []float64{1, 2, 0}
	}
	p := sliceProbe(vecs)
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
	p := sliceProbe(vecs)
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
	p := sliceProbe(dense)
	for seed := uint64(1); seed <= 4; seed++ {
		got := p.meanPairwiseCosineDense(e, 200, sim.NewRNG(seed))
		want := meanPairwiseCosine(e, maps, 200, sim.NewRNG(seed))
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("seed %d: dense %g vs map %g", seed, got, want)
		}
	}
}

// TestCosineProbeReadsOnlyDrawnPairs counts the probe's reads: each drawn
// pair of distinct holders is compared once, reading its two nodes once
// each, and no other node (never drawn, down, or holding nothing) is read.
// The expected counts replay the draws on an equally seeded stream over the
// holders in node order.
func TestCosineProbeReadsOnlyDrawnPairs(t *testing.T) {
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
	p := sliceProbe(vecs)
	reads, cosine := make([]int, nodes), p.cosine
	p.cosine = func(e *sim.Engine, a, b *sim.Node) float64 {
		reads[a.ID]++
		reads[b.ID]++
		return cosine(e, a, b)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		clear(reads)
		p.meanPairwiseCosineDense(e, pairs, sim.NewRNG(seed))
		want, replay := make([]int, nodes), sim.NewRNG(seed)
		for i := 0; i < pairs; i++ {
			if a, b := holders[replay.Intn(len(holders))], holders[replay.Intn(len(holders))]; a != b {
				want[a]++
				want[b]++
			}
		}
		for id := range reads {
			if reads[id] != want[id] {
				t.Fatalf("seed %d: node %d read %d times, its draws want %d", seed, id, reads[id], want[id])
			}
		}
	}
}

// TestIOCosineMatchesDenseFill pins ioCosine's merge walk to
// stats.CosineAligned over the two stores' dense φ^io vectors, bit for bit:
// on random stores whose cells overlap, nest, miss each other or are absent
// (an empty or missing table), with −0 and +0 values among them, and on every
// pair of a pre-trained cluster's stores.
func TestIOCosineMatchesDenseFill(t *testing.T) {
	check := func(label string, a, b *NodeTables) {
		t.Helper()
		want := stats.CosineAligned(a.IOVec(), b.IOVec())
		if got := ioCosine(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: merge walk %v (%#x), dense fill %v (%#x)", label, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := sim.NewRNG(41)
	random := func(density float64) *qlearn.Table {
		tab := qlearn.New(0.5, 0.8)
		for ci := 0; ci < tableCells; ci++ {
			if rng.Float64() >= density {
				continue
			}
			v := rng.Float64()*8 - 4
			switch rng.Intn(8) {
			case 0:
				v = math.Copysign(0, -1)
			case 1:
				v = 0
			}
			tab.Set(qlearn.State(ci/qlearn.DenseSpan), qlearn.Action(ci%qlearn.DenseSpan), v)
		}
		return tab
	}
	densities := []float64{0, 0.001, 0.05, 0.5, 1}
	for trial := 0; trial < 40; trial++ {
		a := &NodeTables{Out: random(densities[rng.Intn(len(densities))]), In: random(densities[rng.Intn(len(densities))])}
		b := &NodeTables{Out: random(densities[rng.Intn(len(densities))]), In: random(densities[rng.Intn(len(densities))])}
		check(fmt.Sprintf("random trial %d", trial), a, b)
		check(fmt.Sprintf("random trial %d, self", trial), a, a.Clone())
	}
	res, err := Pretrain(Config{LearnRounds: 20, AggRounds: 5}, genCluster(t, 24, 72, 40, 7, 7), 9, PretrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Tables {
		for j, b := range res.Tables[:i] {
			check(fmt.Sprintf("pretrained stores %d and %d", i, j), a, b)
		}
	}
}

// BenchmarkMeanPairwiseCosineDense measures the full Figure 5 sample over
// 500 nodes whose stores each hold two random tables of about 2,000 cells,
// the size aggregation gossip grows them to.
func BenchmarkMeanPairwiseCosineDense(b *testing.B) {
	const nodes = 500
	e := sim.NewEngine(nodes, 1)
	rng := sim.NewRNG(2)
	stores := make([]*NodeTables, nodes)
	for i := range stores {
		stores[i] = NewNodeTables()
		for _, tab := range []*qlearn.Table{stores[i].Out, stores[i].In} {
			for ci := 0; ci < tableCells; ci += 1 + rng.Intn(5) {
				tab.Set(qlearn.State(ci/qlearn.DenseSpan), qlearn.Action(ci%qlearn.DenseSpan), rng.Float64())
			}
		}
	}
	p := &cosineProbe{
		holds:  func(e *sim.Engine, n *sim.Node) bool { return true },
		cosine: func(e *sim.Engine, a, b *sim.Node) float64 { return ioCosine(stores[a.ID], stores[b.ID]) },
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.meanPairwiseCosineDense(e, measurePairs, rng)
	}
}
