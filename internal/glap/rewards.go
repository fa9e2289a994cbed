package glap

import (
	"math"

	"github.com/glap-sim/glap/internal/dc"
)

// RewardTable assigns a per-resource reward to the destination level of a
// transition. The total reward of a transition is the sum over resources of
// the destination level's reward ("the total reward of any transition from
// s to ś is aggregation rewards of each resource").
type RewardTable [NumLevels]float64

// Of returns the aggregate reward for reaching the destination levels.
func (rt RewardTable) Of(dst Levels) float64 {
	total := 0.0
	for r := 0; r < dc.NumResources; r++ {
		total += rt[dst[r]]
	}
	return total
}

// rewardOut is the sender-mode reward system: strictly decreasing with the
// destination load level (r_L > r_M > ... > r_O, all positive), so
// transitions that empty the PM fastest earn the most and the learner drives
// senders aggressively toward sleep mode.
var rewardOut = RewardTable{
	Low:      9,
	Medium:   8,
	High:     7,
	XHigh:    6,
	X2High:   5,
	X3High:   4,
	X4High:   3,
	X5High:   2,
	Overload: 1,
}

// DefaultRewardIn is the recipient-mode reward system: positive and
// increasing toward (but excluding) Overload, so recipients are "avaricious"
// and fill up, while the strongly negative Overload entry teaches the
// learner that acceptances leading to overload — now or via the discounted
// future term — must be rejected (r_O << 0).
//
// The magnitude of the Overload penalty matters: with discounting, safe
// acceptance chains bootstrap to Q ≈ r/(1−γ) ≈ +74, so the penalty must be
// an order of magnitude larger for cells with a non-trivial overload
// probability to turn negative. The paper makes the same point: "the
// smaller negative reward value, the less probability of producing SLA
// violations". −1000 rejects cells whose observed overload frequency
// exceeds roughly 7%; the ablation benchmarks sweep this value.
var DefaultRewardIn = RewardTable{
	Low:      1,
	Medium:   2,
	High:     3,
	XHigh:    4,
	X2High:   5,
	X3High:   6,
	X4High:   7,
	X5High:   8,
	Overload: -1000,
}

// finite reports whether every entry is a finite number: a NaN or ±Inf
// reward turns every Q-value it reaches into NaN or ±Inf.
func (rt RewardTable) finite() bool {
	for _, r := range rt {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return false
		}
	}
	return true
}

// validInShape reports whether the in-reward shape constraint holds over
// finite entries: positive everywhere except a strongly negative Overload
// entry.
func (rt RewardTable) validInShape() bool {
	for i := Low; i < Overload; i++ {
		if !(rt[i] > 0) {
			return false
		}
	}
	return rt[Overload] < 0 && rt.finite()
}
