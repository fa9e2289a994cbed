package glap

import "fmt"

// The learning calibration of the paper's evaluation. Each has one value in
// use; the float constants are typed so that every expression over them
// rounds at run time as float64 arithmetic does.
const (
	// alpha is the Q-learning rate α ∈ (0, 1].
	alpha float64 = 0.5
	// gamma is the discount factor γ ∈ [0, 1); values near one make the
	// learner strive for long-term safety (reject VMs that overload a PM
	// "in the near future"), which is the heart of GLAP's threshold-free
	// admission control.
	gamma float64 = 0.8
	// learnUtilThreshold gates the local learning phase: only PMs whose
	// average CPU utilisation is at or below this value simulate
	// consolidation locally, to avoid disturbing collocated VMs. The
	// Figure 5 experiment uses 0.5 ("PMs with up to 50% free CPU").
	learnUtilThreshold float64 = 0.5
	// learnIterations is k, the number of simulated migrations per learning
	// round (Algorithm 1's inner loop).
	learnIterations = 30
	// duplicationTargetUtil controls profile duplication: collected VM
	// profiles are replicated until their aggregate average CPU demand
	// reaches this multiple of PM capacity, so that highly loaded (and
	// overloaded) states are visited during training.
	duplicationTargetUtil float64 = 1.6
)

// Config parameterises the GLAP stack. Zero-valued fields take the defaults
// of DefaultConfig.
type Config struct {
	// RewardIn is the recipient-mode reward system (the sender-mode one,
	// rewardOut, is fixed); the ablation benchmarks sweep its Overload entry.
	RewardIn RewardTable

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
		RewardIn:    DefaultRewardIn,
		LearnRounds: 500,
		AggRounds:   200,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
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
// their defaults first.
func (c Config) Validate() error {
	c = c.withDefaults()
	if !c.RewardIn.validInShape() {
		return fmt.Errorf("glap: RewardIn must be finite, positive below Overload and negative at Overload")
	}
	if c.LearnRounds < 0 {
		return fmt.Errorf("glap: negative LearnRounds %d", c.LearnRounds)
	}
	return nil
}
