package glap

import (
	"fmt"
	"math"
)

// Config parameterises the GLAP stack. Zero-valued fields take the defaults
// of DefaultConfig.
type Config struct {
	// Alpha is the Q-learning rate α ∈ (0, 1].
	Alpha float64
	// Gamma is the discount factor γ ∈ [0, 1); values near one make the
	// learner strive for long-term safety (reject VMs that overload a PM
	// "in the near future"), which is the heart of GLAP's threshold-free
	// admission control.
	Gamma float64

	// LearnUtilThreshold gates the local learning phase: only PMs whose
	// average CPU utilisation is at or below this value simulate
	// consolidation locally, to avoid disturbing collocated VMs. The
	// Figure 5 experiment uses 0.5 ("PMs with up to 50% free CPU").
	LearnUtilThreshold float64
	// LearnIterations is k, the number of simulated migrations per
	// learning round (Algorithm 1's inner loop).
	LearnIterations int
	// DuplicationTargetUtil controls profile duplication: collected VM
	// profiles are replicated until their aggregate average CPU demand
	// reaches this multiple of PM capacity, so that highly loaded (and
	// overloaded) states are visited during training.
	DuplicationTargetUtil float64

	// RewardOut and RewardIn are the two reward systems.
	RewardOut RewardTable
	RewardIn  RewardTable

	// LearnRounds and AggRounds split the pre-training phase: Algorithm 1
	// runs for LearnRounds rounds, then Algorithm 2 for AggRounds rounds.
	// The paper pre-trains for 700 rounds total.
	LearnRounds int
	AggRounds   int

	// CurrentDemandOnly is an ablation switch: when set, pre-action states
	// and actions are calibrated from *current* instead of *average* VM
	// demand, disabling the demand-history signal the paper credits for
	// GLAP's overload prediction (Section IV-B argues current-only states
	// are "unsuitable for an environment with dynamic and unpredictable
	// workloads"). The ablation benchmarks quantify that claim.
	CurrentDemandOnly bool
}

// DefaultConfig returns the calibration used in the evaluation.
func DefaultConfig() Config {
	return Config{
		Alpha:                 0.5,
		Gamma:                 0.8,
		LearnUtilThreshold:    0.5,
		LearnIterations:       30,
		DuplicationTargetUtil: 1.6,
		RewardOut:             DefaultRewardOut,
		RewardIn:              DefaultRewardIn,
		LearnRounds:           500,
		AggRounds:             200,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Alpha == 0 {
		c.Alpha = d.Alpha
	}
	if c.Gamma == 0 {
		c.Gamma = d.Gamma
	}
	if c.LearnUtilThreshold == 0 {
		c.LearnUtilThreshold = d.LearnUtilThreshold
	}
	if c.LearnIterations == 0 {
		c.LearnIterations = d.LearnIterations
	}
	if c.DuplicationTargetUtil == 0 {
		c.DuplicationTargetUtil = d.DuplicationTargetUtil
	}
	if c.RewardOut == (RewardTable{}) {
		c.RewardOut = d.RewardOut
	}
	if c.RewardIn == (RewardTable{}) {
		c.RewardIn = d.RewardIn
	}
	if c.LearnRounds == 0 {
		c.LearnRounds = d.LearnRounds
	}
	// Zero means "default"; a negative value explicitly disables the
	// aggregation phase (the WOG ablation).
	if c.AggRounds == 0 {
		c.AggRounds = d.AggRounds
	} else if c.AggRounds < 0 {
		c.AggRounds = 0
	}
	return c
}

// Validate reports the errors of c as Pretrain uses it: zero fields take
// their defaults first. Range checks are written in positive form — "inside
// the range", negated — so that NaN, which fails every comparison, fails
// them too.
func (c Config) Validate() error {
	c = c.withDefaults()
	if !(c.Alpha > 0 && c.Alpha <= 1) {
		return fmt.Errorf("glap: Alpha %g out of (0,1]", c.Alpha)
	}
	if !(c.Gamma >= 0 && c.Gamma < 1) {
		return fmt.Errorf("glap: Gamma %g out of [0,1)", c.Gamma)
	}
	if !(c.LearnUtilThreshold > 0 && c.LearnUtilThreshold <= 1) {
		return fmt.Errorf("glap: LearnUtilThreshold %g out of (0,1]", c.LearnUtilThreshold)
	}
	if c.LearnIterations < 1 {
		return fmt.Errorf("glap: LearnIterations must be >= 1")
	}
	if !(c.DuplicationTargetUtil > 0 && !math.IsInf(c.DuplicationTargetUtil, 1)) {
		return fmt.Errorf("glap: DuplicationTargetUtil %g must be finite and > 0", c.DuplicationTargetUtil)
	}
	if !c.RewardOut.validStrictlyDecreasing() {
		return fmt.Errorf("glap: RewardOut must be finite, positive and strictly decreasing across levels")
	}
	if !c.RewardIn.validInShape() {
		return fmt.Errorf("glap: RewardIn must be finite, positive below Overload and negative at Overload")
	}
	if c.LearnRounds < 0 || c.AggRounds < 0 {
		return fmt.Errorf("glap: negative phase lengths")
	}
	return nil
}
