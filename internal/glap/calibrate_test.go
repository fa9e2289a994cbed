package glap

import (
	"math"
	"math/bits"
	"testing"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/sim"
)

// stepUlps moves x by n units in the last place (negative n towards −Inf),
// walking through zero into the other sign.
func stepUlps(x float64, n int) float64 {
	dir := math.Inf(1)
	if n < 0 {
		dir, n = math.Inf(-1), -n
	}
	for ; n > 0; n-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// levelBounds are LevelOf's boundaries in ascending order.
var levelBounds = [NumLevels - 1]float64{0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

// calibrationProbes returns the sums worth checking against capacity cp: the
// neighbourhood of every boundary product, the capacity itself, and the
// values the fast path must hand to the general one.
func calibrationProbes(cp float64) []float64 {
	probes := []float64{
		0, math.Copysign(0, -1), math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
		-1, -1e-13, -math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
	}
	for _, t := range levelBounds {
		for d := -4; d <= 4; d++ {
			probes = append(probes, stepUlps(t*cp, d))
		}
	}
	return probes
}

// requireStateOfSum checks the boundary table of capacity cp against
// stateOfSum on every pairing of the probe values.
func requireStateOfSum(t *testing.T, cp dc.Vec) {
	t.Helper()
	c := calibrationFor(cp)
	cpu, mem := calibrationProbes(cp[dc.CPU]), calibrationProbes(cp[dc.Mem])
	for _, x := range cpu {
		for _, y := range mem {
			sum := dc.Vec{dc.CPU: x, dc.Mem: y}
			if got, want := c.state(sum), stateOfSum(sum, cp); got != want {
				t.Fatalf("cap %v sum %v (%#x, %#x): calibrated state %v, stateOfSum %v",
					cp, sum, math.Float64bits(x), math.Float64bits(y),
					LevelsOfState(got), LevelsOfState(want))
			}
		}
	}
}

// TestCalibratedStateMatchesStateOfSum holds the division-free calibration
// to the divide-and-compare it replaces, on the capacities the repository
// runs (the default spec and both of the heterogeneous fleet's), on random
// ones, and on the capacities that must take the general path.
func TestCalibratedStateMatchesStateOfSum(t *testing.T) {
	caps := []dc.Vec{
		dc.HPProLiantML110G5.Capacity,
		dc.HPProLiantML110G4.Capacity,
		{1, 1}, {3, 7}, {0.1, 1e-300}, {1e300, math.MaxFloat64},
		{math.SmallestNonzeroFloat64, 5e-324 * 3},
	}
	rng := sim.NewRNG(2024)
	for i := 0; i < 200; i++ {
		caps = append(caps, dc.Vec{rng.Pareto(1.2, 50), 16 + 65536*rng.Float64()})
	}
	for _, cp := range caps {
		if c := calibrationFor(cp); !c.exact {
			t.Fatalf("capacity %v has no boundary table", cp)
		}
		requireStateOfSum(t, cp)
	}

	for _, cp := range []dc.Vec{
		{}, {0, 4096}, {2660, 0}, {-2660, 4096}, {2660, math.Inf(1)},
		{math.NaN(), 4096}, {math.Inf(-1), 1},
	} {
		if c := calibrationFor(cp); c.exact {
			t.Fatalf("capacity %v got a boundary table; want the stateOfSum fallback", cp)
		}
		requireStateOfSum(t, cp)
	}
}

// TestCalibrationBoundsAreTight checks the table's defining property directly:
// each bound is across its boundary and its predecessor is not.
func TestCalibrationBoundsAreTight(t *testing.T) {
	for _, cp := range []dc.Vec{dc.HPProLiantML110G5.Capacity, dc.HPProLiantML110G4.Capacity, {3, 1e-9}} {
		c := calibrationFor(cp)
		for r := 0; r < dc.NumResources; r++ {
			for b := range levelBounds {
				at := math.Float64frombits(c.bound[r][b])
				below := math.Float64frombits(c.bound[r][b] - 1)
				if lv := LevelOf(at / cp[r]); int(lv) != b+1 {
					t.Fatalf("cap %v resource %d bound %d: level at the bound %v, want %v", cp, r, b, lv, Level(b+1))
				}
				if lv := LevelOf(below / cp[r]); int(lv) != b {
					t.Fatalf("cap %v resource %d bound %d: level below the bound %v, want %v", cp, r, b, lv, Level(b))
				}
			}
		}
	}
}

// FuzzCalibratedState searches for a (capacity, sum) on which the boundary
// table and stateOfSum disagree. Its seeds are the committed corpus under
// testdata/fuzz/FuzzCalibratedState: boundary products of both PM specs, and
// the sums and capacities that take the general path.
func FuzzCalibratedState(f *testing.F) {
	f.Fuzz(func(t *testing.T, capCPU, capMem, sumCPU, sumMem float64) {
		cp := dc.Vec{dc.CPU: capCPU, dc.Mem: capMem}
		c := calibrationFor(cp)
		for d := -2; d <= 2; d++ {
			sum := dc.Vec{dc.CPU: stepUlps(sumCPU, d), dc.Mem: stepUlps(sumMem, -d)}
			if got, want := c.state(sum), stateOfSum(sum, cp); got != want {
				t.Fatalf("cap %v sum %v: calibrated state %v, stateOfSum %v",
					cp, sum, LevelsOfState(got), LevelsOfState(want))
			}
		}
	})
}

// TestSelectBit checks the rank-select against a linear scan over single- and
// multi-word bitsets, including empty words between populated ones.
func TestSelectBit(t *testing.T) {
	rng := sim.NewRNG(77)
	sets := [][]uint64{
		{1}, {1 << 63}, {^uint64(0)}, {0, 1}, {1 << 63, 0, 0, 1},
		{^uint64(0), ^uint64(0), ^uint64(0)},
	}
	for i := 0; i < 200; i++ {
		bs := make([]uint64, 1+rng.Intn(6))
		for w := range bs {
			switch rng.Intn(4) {
			case 0: // leave the word empty
			case 1:
				bs[w] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			default:
				bs[w] = rng.Uint64()
			}
		}
		sets = append(sets, bs)
	}
	for _, bs := range sets {
		r := 0
		for k := 0; k < 64*len(bs); k++ {
			if bs[k>>6]>>(uint(k)&63)&1 == 0 {
				continue
			}
			if got := selectBit(bs, r); got != k {
				t.Fatalf("selectBit(%#x, %d) = %d, linear scan %d", bs, r, got, k)
			}
			r++
		}
		pop := 0
		for _, w := range bs {
			pop += bits.OnesCount64(w)
		}
		if r != pop {
			t.Fatalf("scan visited %d set bits of %d", r, pop)
		}
	}
}
