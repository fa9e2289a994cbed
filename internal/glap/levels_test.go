package glap

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/qlearn"
)

// PMStateAvg returns the PM's calibrated state from its VMs' average
// demands — the paper's pre-action state — by dividing by capacity: the
// oracle of the protocols' division-free calibrations.pmState.
func PMStateAvg(c *dc.Cluster, pm *dc.PM) qlearn.State {
	return LevelsOf(c.AvgUtil(pm)).State()
}

// PMStateCur is PMStateAvg from current demands — the paper's post-action
// state.
func PMStateCur(c *dc.Cluster, pm *dc.PM) qlearn.State {
	return LevelsOf(c.CurUtil(pm)).State()
}

func TestLevelOfThresholds(t *testing.T) {
	// Exact boundary semantics of the Section IV-A calibration table.
	cases := []struct {
		x    float64
		want Level
	}{
		{0, Low}, {0.2, Low},
		{0.200001, Medium}, {0.4, Medium},
		{0.41, High}, {0.5, High},
		{0.51, XHigh}, {0.6, XHigh},
		{0.61, X2High}, {0.7, X2High},
		{0.71, X3High}, {0.8, X3High},
		{0.81, X4High}, {0.9, X4High},
		{0.91, X5High}, {0.999, X5High},
		{1.0, Overload}, {1.5, Overload},
	}
	for _, tc := range cases {
		if got := LevelOf(tc.x); got != tc.want {
			t.Fatalf("LevelOf(%g) = %s, want %s", tc.x, got, tc.want)
		}
	}
}

func TestLevelString(t *testing.T) {
	names := []string{"Low", "Medium", "High", "xHigh", "2xHigh", "3xHigh", "4xHigh", "5xHigh", "Overload"}
	for l := Low; l <= Overload; l++ {
		if l.String() != names[l] {
			t.Fatalf("Level(%d).String() = %q, want %q", l, l.String(), names[l])
		}
	}
	if Level(42).String() != "Level(42)" {
		t.Fatal("unknown level string wrong")
	}
}

func TestPaperExample(t *testing.T) {
	// Section IV-A: a VM with average CPU 0.85 and memory 0.56 is the
	// action (4xHigh, xHigh).
	ls := LevelsOf(dc.Vec{0.85, 0.56})
	if ls[dc.CPU] != X4High || ls[dc.Mem] != XHigh {
		t.Fatalf("paper example = %s", ls)
	}
	if ls.String() != "(4xHigh, xHigh)" {
		t.Fatalf("String = %q", ls.String())
	}
}

func TestStatePackRoundTrip(t *testing.T) {
	f := func(a, b uint8) bool {
		ls := Levels{Level(a % NumLevels), Level(b % NumLevels)}
		return LevelsOfState(ls.State()) == ls && LevelsOfState(qlearn.State(ls.Action())) == ls
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatePackDistinct(t *testing.T) {
	seen := map[qlearn.State]bool{}
	for a := Low; a <= Overload; a++ {
		for b := Low; b <= Overload; b++ {
			s := Levels{a, b}.State()
			if seen[s] {
				t.Fatalf("state collision at (%s, %s)", a, b)
			}
			seen[s] = true
		}
	}
	if len(seen) != 81 {
		t.Fatalf("expected 81 distinct states, got %d", len(seen))
	}
}

func TestRewardTableOf(t *testing.T) {
	// Aggregation across resources: sum of per-resource destination
	// rewards.
	got := rewardOut.Of(Levels{Low, Medium})
	if got != 9+8 {
		t.Fatalf("rewardOut(Low,Medium) = %g", got)
	}
	got = DefaultRewardIn.Of(Levels{X5High, Overload})
	if got != 8-1000 {
		t.Fatalf("RewardIn(5xHigh,Overload) = %g", got)
	}
}

func TestDefaultRewardShapes(t *testing.T) {
	// Section IV-A's out-reward ordering: finite, positive and strictly
	// decreasing across levels.
	for i := 1; i < NumLevels; i++ {
		if !(rewardOut[i] < rewardOut[i-1]) {
			t.Fatalf("rewardOut not strictly decreasing at level %d", i)
		}
	}
	if !(rewardOut[Overload] > 0) || !rewardOut.finite() {
		t.Fatal("rewardOut must be finite and positive")
	}
	if !DefaultRewardIn.validInShape() {
		t.Fatal("RewardIn must be positive below Overload, negative at Overload")
	}
	// r_O << 0 relative to the positive rewards.
	if DefaultRewardIn[Overload] > -10*DefaultRewardIn[X5High] {
		t.Fatal("Overload penalty not much smaller than zero")
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{LearnRounds: -1}).Validate(); err == nil {
		t.Fatal("negative LearnRounds should fail validation")
	}
	// Reward shape violations.
	cfg := DefaultConfig()
	cfg.RewardIn[Overload] = 5
	if err := cfg.Validate(); err == nil {
		t.Fatal("positive Overload in-reward should fail validation")
	}
	// NaN fails every comparison and ±Inf passes the ordering ones, so each
	// must be refused explicitly rather than poison the Q-tables.
	nan, inf := math.NaN(), math.Inf(1)
	for name, mut := range map[string]func(c *Config){
		"RewardIn[2] NaN":         func(c *Config) { c.RewardIn[2] = nan },
		"RewardIn[X5High] +Inf":   func(c *Config) { c.RewardIn[X5High] = inf },
		"RewardIn[Overload] -Inf": func(c *Config) { c.RewardIn[Overload] = -inf },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.withDefaults().Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestConfigWithDefaults(t *testing.T) {
	var zero Config
	filled := zero.withDefaults()
	if err := filled.Validate(); err != nil {
		t.Fatalf("defaulted config invalid: %v", err)
	}
	if filled != DefaultConfig() {
		t.Fatal("defaults not applied")
	}
	// Partial overrides survive, and a negative AggRounds disables the
	// aggregation phase.
	custom := Config{LearnRounds: 7, AggRounds: -1}.withDefaults()
	if custom.LearnRounds != 7 || custom.AggRounds != 0 || custom.RewardIn != DefaultRewardIn {
		t.Fatal("override lost or default missing")
	}
}
