package glap

// Empirical validation of Theorem 1: the gossip aggregation process
// repeatedly averages Q-values drawn from random nodes, and the resulting
// per-node value X = x0/2^n + x1/2^n + x2/2^(n-1) + ... + xn/2 converges in
// distribution to a normal as the number of rounds grows, by the
// Lindeberg/Lyapunov CLT. We reproduce the theorem's setting on Algorithm 2
// itself — a population of i.i.d. NON-normal values of one Q-table cell,
// merged pairwise by AggProtocol over the Cyclon overlay — and check
// normality of the resulting cross-node value distribution with the
// Jarque-Bera statistic.

import (
	"math"
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
)

// storeOnly registers the learning component for its per-node Q store alone:
// its window opens after it closes, so it never trains.
func storeOnly(e *sim.Engine) {
	e.RegisterWindow(&LearnProtocol{Cfg: DefaultConfig()}, 1, 1, 0)
}

// theorem1Values gives each of n nodes a φ^out holding one cell, whose value
// is drawn from a highly skewed distribution, runs `rounds` rounds of
// AggProtocol (lanes included) — stopping mid-convergence, where the
// theorem's distributional claim applies — and returns the node values.
func theorem1Values(t *testing.T, n, rounds int, seed uint64) []float64 {
	t.Helper()
	e := sim.NewEngine(n, seed)
	e.Register(cyclon.New(0, 0))
	storeOnly(e)
	e.Register(&AggProtocol{})
	e.RunRounds(0) // set up the stores
	rng := sim.NewRNG(seed).Derive(42)
	for _, node := range e.Nodes() {
		// Squared-uniform initial values: strongly right-skewed, far from
		// normal (JB rejects decisively for n = 1000).
		u := rng.Float64()
		TablesOf(e, node).Out.Set(0, 0, u*u*100)
	}
	e.RunRounds(rounds)
	out := make([]float64, n)
	for i, node := range e.Nodes() {
		out[i] = TablesOf(e, node).Out.Get(0, 0)
	}
	return out
}

func TestTheorem1InitialDistributionNotNormal(t *testing.T) {
	xs := theorem1Values(t, 1000, 0, 7)
	if jb := stats.JarqueBera(xs); jb < 50 {
		t.Fatalf("initial skewed distribution unexpectedly normal: JB=%g", jb)
	}
}

func TestTheorem1AggregationNormalizes(t *testing.T) {
	// After a few gossip rounds each node's value is a weighted sum of
	// several independent initial values; the JB statistic must collapse
	// by orders of magnitude relative to round 0.
	before, after := theorem1Values(t, 1000, 0, 7), theorem1Values(t, 1000, 6, 7)
	jb0, jb := stats.JarqueBera(before), stats.JarqueBera(after)
	s0, s := stats.Skewness(before), stats.Skewness(after)
	t.Logf("JB %.4g -> %.4g, skewness %.4g -> %.4g", jb0, jb, s0, s)
	if jb > jb0/2 {
		t.Fatalf("JB did not collapse: before=%g after=%g", jb0, jb)
	}
	// Skewness must also shrink toward 0.
	if math.Abs(s) > math.Abs(s0)/2 {
		t.Fatalf("skewness did not shrink: %g -> %g", s0, s)
	}
}

func TestTheorem1MeanPreserved(t *testing.T) {
	// The aggregation must preserve the expectation u_x (mass
	// conservation of push-pull averaging).
	before := theorem1Values(t, 500, 0, 9)
	after := theorem1Values(t, 500, 8, 9)
	mb, ma := stats.Mean(before), stats.Mean(after)
	t.Logf("mean %.10g -> %.10g (drift %.3g), variance %.4g -> %.4g", mb, ma, ma-mb, stats.Variance(before), stats.Variance(after))
	if math.Abs(mb-ma) > 1e-6 {
		t.Fatalf("mean not preserved: %g -> %g", mb, ma)
	}
	// And the variance must shrink toward 0 (consensus).
	if stats.Variance(after) >= stats.Variance(before) {
		t.Fatal("variance did not shrink under aggregation")
	}
}
