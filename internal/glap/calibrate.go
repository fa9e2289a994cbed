package glap

import (
	"math"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/qlearn"
)

// calibration is stateOfSum specialised to one PM capacity: for each resource
// and each of the eight steps of the level scale it holds the bit pattern of
// the smallest demand sum whose quotient by the capacity LevelOf puts above
// the step. Correctly rounded division by a fixed positive divisor is monotone
// and so is LevelOf, so "LevelOf(fl(sum/cap)) > b" and "sum >= bound[b]" are
// the same predicate for every non-negative sum: the level is the number of
// bounds at or below the sum, with no divide and no compare tree. This is an
// exact equivalence, not an approximation — TestCalibratedStateMatchesStateOfSum
// and FuzzCalibratedState hold it to stateOfSum bit for bit.
type calibration struct {
	// cap is the capacity the table was built for.
	cap dc.Vec
	// exact is false for a capacity that is not positive and finite in every
	// resource (and for the zero value); state then defers to stateOfSum.
	exact bool
	// bound[r][b] is math.Float64bits of the smallest sum that LevelOf puts
	// above level b once divided by cap[r]. Non-negative floats order like
	// their bit patterns, so the kernel compares integers.
	bound [dc.NumResources][NumLevels - 1]uint64
}

// infBits is the bit pattern of +Inf: every non-negative non-NaN float's
// pattern is at or below it, every negative float's and every NaN's above.
const infBits = 0x7ff0000000000000

// calibrationFor builds the boundary table for capacity cp.
func calibrationFor(cp dc.Vec) calibration {
	c := calibration{cap: cp, exact: true}
	for r := 0; r < dc.NumResources; r++ {
		if !(cp[r] > 0) || math.IsInf(cp[r], 1) {
			return calibration{cap: cp}
		}
		for b := range c.bound[r] {
			// Bisect over bit patterns with stateOfSum's own divide and
			// LevelOf as the predicate: +0 is Low (0/cap = 0) and cap itself
			// is Overload (cap/cap = 1), so lo is never above level b and hi
			// always is.
			lo, hi := uint64(0), math.Float64bits(cp[r])
			for hi-lo > 1 {
				mid := lo + (hi-lo)/2
				if LevelOf(math.Float64frombits(mid)/cp[r]) > Level(b) {
					hi = mid
				} else {
					lo = mid
				}
			}
			c.bound[r][b] = hi
		}
	}
	return c
}

// state is stateOfSum(sum, c.cap). NaN and negative sums (the recipient side
// of an all-sender partition is totals − sender, which can land an ulp below
// zero) take the general path.
func (c *calibration) state(sum dc.Vec) qlearn.State {
	cpu, mem := math.Float64bits(sum[dc.CPU]), math.Float64bits(sum[dc.Mem])
	if !c.exact || cpu > infBits || mem > infBits {
		return stateOfSum(sum, c.cap)
	}
	// Both operands are below 2⁶³, so s − bound wraps to a value with its top
	// bit set exactly when s < bound: each boundary costs a subtract, a shift
	// and an add, and none of them is a branch.
	bCPU, bMem := &c.bound[dc.CPU], &c.bound[dc.Mem]
	var belowCPU, belowMem uint64
	for b := 0; b < NumLevels-1; b++ {
		belowCPU += (cpu - bCPU[b]) >> 63
		belowMem += (mem - bMem[b]) >> 63
	}
	// Levels.State's packing: CPU level first.
	return qlearn.State((NumLevels-1-belowCPU)*NumLevels + (NumLevels - 1 - belowMem))
}

// The kernel names its two resources (here and in senderSums' scalar sums)
// instead of looping over dc.NumResources; a third resource must fail to
// compile rather than be silently dropped from the state.
var _ = [1]struct{}{}[dc.NumResources-2]
