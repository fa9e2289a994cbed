// Package glap implements the paper's contribution: the GLAP (Gossip
// Learning Resource Allocation Protocol) dynamic VM consolidation algorithm.
// It comprises the 9-level state/action calibration (Section IV-A), the two
// reward systems, the two-phase distributed learning protocol (Algorithms 1
// and 2), and the gossip consolidation component (Algorithm 3).
package glap

import (
	"fmt"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/qlearn"
)

// Level is one of the paper's nine calibrated utilisation levels.
type Level uint8

// The nine utilisation levels of Section IV-A.
const (
	Low Level = iota
	Medium
	High
	XHigh
	X2High
	X3High
	X4High
	X5High
	Overload

	// NumLevels is the size of the level scale.
	NumLevels = 9
)

// String returns the paper's level name.
func (l Level) String() string {
	switch l {
	case Low:
		return "Low"
	case Medium:
		return "Medium"
	case High:
		return "High"
	case XHigh:
		return "xHigh"
	case X2High:
		return "2xHigh"
	case X3High:
		return "3xHigh"
	case X4High:
		return "4xHigh"
	case X5High:
		return "5xHigh"
	case Overload:
		return "Overload"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// LevelOf calibrates a utilisation fraction onto the nine-level scale using
// the thresholds of Section IV-A. Utilisation at or above capacity maps to
// Overload. The comparison tree evaluates at most four of the boundaries
// (the linear chain averaged five with poorly predicted branches — this
// runs four times per training iteration and once per PM/VM state read in
// consolidation); every boundary keeps the exact constant and operator of
// the paper's calibration, so results are bit-identical to the chain.
func LevelOf(x float64) Level {
	if x <= 0.5 {
		if x <= 0.2 {
			return Low
		}
		if x <= 0.4 {
			return Medium
		}
		return High
	}
	if x <= 0.7 {
		if x <= 0.6 {
			return XHigh
		}
		return X2High
	}
	if x <= 0.9 {
		if x <= 0.8 {
			return X3High
		}
		return X4High
	}
	if x < 1 {
		return X5High
	}
	return Overload
}

// Levels is a calibrated multi-resource load state: one Level per resource.
// With two resources and nine levels there are 81 possible states/actions.
type Levels [dc.NumResources]Level

// LevelsOf calibrates a utilisation vector.
func LevelsOf(util dc.Vec) Levels {
	var ls Levels
	for r := 0; r < dc.NumResources; r++ {
		ls[r] = LevelOf(util[r])
	}
	return ls
}

// String renders e.g. "(4xHigh, xHigh)".
func (ls Levels) String() string {
	return fmt.Sprintf("(%s, %s)", ls[dc.CPU], ls[dc.Mem])
}

// HasOverload reports whether any resource is at the Overload level.
func (ls Levels) HasOverload() bool {
	for _, l := range ls {
		if l == Overload {
			return true
		}
	}
	return false
}

// Packed states and actions range over the NumLevels² level pairs, which is
// exactly the span a Q-table covers; qlearn.Table.Set panics beyond it. A
// mismatch makes one of these conversions negative and fails the build.
const _ = uint(qlearn.DenseSpan-NumLevels*NumLevels) + uint(NumLevels*NumLevels-qlearn.DenseSpan)

// State packs the level pair into a Q-learning state.
func (ls Levels) State() qlearn.State {
	v := uint32(0)
	for _, l := range ls {
		v = v*NumLevels + uint32(l)
	}
	return qlearn.State(v)
}

// Action packs the level pair into a Q-learning action.
func (ls Levels) Action() qlearn.Action { return qlearn.Action(ls.State()) }

// LevelsOfState unpacks a packed state back into its level pair.
func LevelsOfState(s qlearn.State) Levels {
	var ls Levels
	v := uint32(s)
	for i := dc.NumResources - 1; i >= 0; i-- {
		ls[i] = Level(v % NumLevels)
		v /= NumLevels
	}
	return ls
}

// LevelsOfAction unpacks a packed action.
func LevelsOfAction(a qlearn.Action) Levels { return LevelsOfState(qlearn.State(a)) }

// PMStateAvg returns the PM's calibrated state from its VMs' average
// demands — the paper's pre-action state.
func PMStateAvg(c *dc.Cluster, pm *dc.PM) qlearn.State {
	return LevelsOf(c.AvgUtil(pm)).State()
}

// PMStateCur returns the PM's calibrated state from current demands — the
// paper's post-action state.
func PMStateCur(c *dc.Cluster, pm *dc.PM) qlearn.State {
	return LevelsOf(c.CurUtil(pm)).State()
}

// VMAction returns the VM's calibrated action from its average demand.
func VMAction(vm *dc.VM) qlearn.Action {
	return LevelsOf(vm.AvgDemand()).Action()
}
