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
	got := DefaultRewardOut.Of(Levels{Low, Medium})
	if got != 9+8 {
		t.Fatalf("RewardOut(Low,Medium) = %g", got)
	}
	got = DefaultRewardIn.Of(Levels{X5High, Overload})
	if got != 8-1000 {
		t.Fatalf("RewardIn(5xHigh,Overload) = %g", got)
	}
}

func TestDefaultRewardShapes(t *testing.T) {
	if !DefaultRewardOut.validStrictlyDecreasing() {
		t.Fatal("RewardOut must be strictly decreasing and positive")
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
	bad := []Config{
		{Alpha: 2, Gamma: 0.5, LearnUtilThreshold: 0.5, LearnIterations: 1, RewardOut: DefaultRewardOut, RewardIn: DefaultRewardIn, LearnRounds: 1, AggRounds: 1},
		{Alpha: 0.5, Gamma: 1, LearnUtilThreshold: 0.5, LearnIterations: 1, RewardOut: DefaultRewardOut, RewardIn: DefaultRewardIn, LearnRounds: 1, AggRounds: 1},
		{Alpha: 0.5, Gamma: 0.5, LearnUtilThreshold: 2, LearnIterations: 1, RewardOut: DefaultRewardOut, RewardIn: DefaultRewardIn, LearnRounds: 1, AggRounds: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	// Reward shape violations.
	cfg := DefaultConfig()
	cfg.RewardOut[Low] = 0.5 // no longer decreasing from nothing... make invalid:
	cfg.RewardOut = RewardTable{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if err := cfg.Validate(); err == nil {
		t.Fatal("increasing RewardOut should fail validation")
	}
	cfg = DefaultConfig()
	cfg.RewardIn[Overload] = 5
	if err := cfg.Validate(); err == nil {
		t.Fatal("positive Overload in-reward should fail validation")
	}
	// NaN fails every comparison and ±Inf passes the ordering ones, so each
	// must be refused explicitly rather than poison the Q-tables.
	nan, inf := math.NaN(), math.Inf(1)
	for name, mut := range map[string]func(c *Config){
		"Alpha NaN":                  func(c *Config) { c.Alpha = nan },
		"Alpha +Inf":                 func(c *Config) { c.Alpha = inf },
		"Gamma NaN":                  func(c *Config) { c.Gamma = nan },
		"Gamma -Inf":                 func(c *Config) { c.Gamma = -inf },
		"LearnUtilThreshold NaN":     func(c *Config) { c.LearnUtilThreshold = nan },
		"LearnUtilThreshold +Inf":    func(c *Config) { c.LearnUtilThreshold = inf },
		"DuplicationTargetUtil NaN":  func(c *Config) { c.DuplicationTargetUtil = nan },
		"DuplicationTargetUtil -1":   func(c *Config) { c.DuplicationTargetUtil = -1 },
		"DuplicationTargetUtil +Inf": func(c *Config) { c.DuplicationTargetUtil = inf },
		"RewardOut[3] NaN":           func(c *Config) { c.RewardOut[3] = nan },
		"RewardOut[0] +Inf":          func(c *Config) { c.RewardOut[0] = inf },
		"RewardOut[Overload] NaN":    func(c *Config) { c.RewardOut[Overload] = nan },
		"RewardIn[2] NaN":            func(c *Config) { c.RewardIn[2] = nan },
		"RewardIn[X5High] +Inf":      func(c *Config) { c.RewardIn[X5High] = inf },
		"RewardIn[Overload] -Inf":    func(c *Config) { c.RewardIn[Overload] = -inf },
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
	if filled.Alpha != DefaultConfig().Alpha || filled.LearnRounds != DefaultConfig().LearnRounds {
		t.Fatal("defaults not applied")
	}
	// Partial overrides survive.
	custom := Config{Alpha: 0.9}.withDefaults()
	if custom.Alpha != 0.9 || custom.Gamma != DefaultConfig().Gamma {
		t.Fatal("override lost or default missing")
	}
}
