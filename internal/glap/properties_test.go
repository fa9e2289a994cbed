package glap

// Property-style tests on invariants of the learned Q-values.

import "testing"

// trainedTables runs a learning-only stack and pools every node's tables.
func trainedTables(t *testing.T, seed uint64) []*NodeTables {
	return learnTables(t, genCluster(t, 16, 48, 60, seed, seed), DefaultConfig(), seed, 8, 4, 30, false)
}

func TestOutTableValuesNonNegativeAndBounded(t *testing.T) {
	// R_out is positive everywhere, Q starts at 0 and the update is a
	// convex combination with a positive target, so out-values must stay
	// in [0, Rmax/(1-γ)].
	cfg := DefaultConfig()
	rmax := 0.0
	for _, r := range cfg.RewardOut {
		if 2*r > rmax { // two resources aggregate
			rmax = 2 * r
		}
	}
	bound := rmax / (1 - cfg.Gamma)
	for _, tb := range trainedTables(t, 3) {
		for _, k := range tb.Out.Keys() {
			v := tb.Out.Get(k.S, k.A)
			if v < 0 {
				t.Fatalf("negative out-value %g at %v", v, k)
			}
			if v > bound+1e-9 {
				t.Fatalf("out-value %g exceeds Bellman bound %g", v, bound)
			}
		}
	}
}

func TestInTableValuesBoundedBelow(t *testing.T) {
	// The most negative reachable in-value is bounded by the Bellman
	// fixed point with the full overload penalty on both resources.
	cfg := DefaultConfig()
	worstReward := 2 * cfg.RewardIn[Overload] // both resources overloaded
	lower := worstReward / (1 - cfg.Gamma)
	for _, tb := range trainedTables(t, 5) {
		for _, k := range tb.In.Keys() {
			v := tb.In.Get(k.S, k.A)
			if v < lower-1e-9 {
				t.Fatalf("in-value %g below Bellman lower bound %g", v, lower)
			}
		}
	}
}

func TestStatesWithinCalibratedSpace(t *testing.T) {
	// Every learned cell's state and action must decode to valid level
	// pairs (membership in the 81-element calibrated space).
	for _, tb := range trainedTables(t, 7) {
		check := func(kS, kA uint32) {
			if kS >= 81 || kA >= 81 {
				t.Fatalf("cell (%d, %d) outside the 81x81 space", kS, kA)
			}
		}
		for _, k := range tb.Out.Keys() {
			check(uint32(k.S), uint32(k.A))
		}
		for _, k := range tb.In.Keys() {
			check(uint32(k.S), uint32(k.A))
		}
	}
}

func TestLearningIsDeterministic(t *testing.T) {
	requireSameStores(t, "identical runs", trainedTables(t, 11), trainedTables(t, 11))
}
