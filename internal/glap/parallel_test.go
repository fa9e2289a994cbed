package glap

import (
	"math"
	"testing"

	"github.com/glap-sim/glap/internal/qlearn"
)

// tableFingerprint folds a Q-table's dense cells into a comparable bit sum.
func tableFingerprint(tb *qlearn.Table) uint64 {
	var h uint64
	for k, v := range tb.Flat() {
		h ^= (uint64(k.S)*0x9e3779b97f4a7c15 + uint64(k.A)*0xbf58476d1ce4e5b9) * (math.Float64bits(v) | 1)
	}
	return h
}

// TestPretrainWorkerCountBitEquivalence is the package-level half of the
// headline invariant: the whole pre-training phase — parallel learning
// rounds, merge lanes, convergence sampling — must be byte-identical for
// Workers=1 and Workers=8. Run under -race in CI, it doubles as the race
// check on the parallel pretrain path.
func TestPretrainWorkerCountBitEquivalence(t *testing.T) {
	run := func(workers int) *PretrainResult {
		cl := genCluster(t, 30, 60, 60, 3)
		res, err := Pretrain(Config{LearnRounds: 25, AggRounds: 15}, cl, 17,
			PretrainOptions{MeasureEvery: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if len(a.Convergence) != len(b.Convergence) {
		t.Fatalf("convergence series lengths differ: %d vs %d", len(a.Convergence), len(b.Convergence))
	}
	for i := range a.Convergence {
		if math.Float64bits(a.Convergence[i]) != math.Float64bits(b.Convergence[i]) {
			t.Fatalf("convergence[%d] diverges: %v vs %v", i, a.Convergence[i], b.Convergence[i])
		}
	}
	if len(a.Tables) != len(b.Tables) {
		t.Fatalf("table counts differ")
	}
	for i := range a.Tables {
		ta, tb := a.Tables[i], b.Tables[i]
		if ta.Trained != tb.Trained {
			t.Fatalf("node %d Trained flag diverges", i)
		}
		if tableFingerprint(ta.Out) != tableFingerprint(tb.Out) {
			t.Fatalf("node %d Out table diverges", i)
		}
		if tableFingerprint(ta.In) != tableFingerprint(tb.In) {
			t.Fatalf("node %d In table diverges", i)
		}
	}
}
