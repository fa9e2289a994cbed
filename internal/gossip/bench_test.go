package gossip

import (
	"testing"

	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
)

// glapIOCells is the GLAP φ^io vector length: two 81×81 Q-tables.
const glapIOCells = 2 * 81 * 81

// BenchmarkCosine measures one aligned dense cosine over GLAP-sized φ^io
// vectors — the per-pair cost of the dense convergence instrumentation.
func BenchmarkCosine(b *testing.B) {
	va := make([]float64, glapIOCells)
	vb := make([]float64, glapIOCells)
	for i := range va {
		va[i] = float64(i % 97)
		vb[i] = float64((i + 13) % 89)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stats.CosineAligned(va, vb)
	}
}

// BenchmarkCosineSparse is the retired map-based baseline for
// BenchmarkCosine, on identical data.
func BenchmarkCosineSparse(b *testing.B) {
	ma := make(map[int]float64, glapIOCells)
	mb := make(map[int]float64, glapIOCells)
	for i := 0; i < glapIOCells; i++ {
		ma[i] = float64(i % 97)
		mb[i] = float64((i + 13) % 89)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stats.CosineMaps(ma, mb)
	}
}

// BenchmarkMeanPairwiseCosineDense measures the full Figure 5 sample over
// 500 nodes holding GLAP-sized dense vectors.
func BenchmarkMeanPairwiseCosineDense(b *testing.B) {
	e := sim.NewEngine(500, 1)
	vecs := make([][]float64, 500)
	for i := range vecs {
		v := make([]float64, glapIOCells)
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
		_ = MeanPairwiseCosineDense(e, vf, 64, rng)
	}
}
