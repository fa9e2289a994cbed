package qlearn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The branching value kernels the branch-free ones replaced, kept verbatim as
// oracles: they define, bit for bit, what a merge must produce.

func averageIntoBranching(dvals, ovals []float64) {
	for i := range dvals {
		if dv, ov := dvals[i], ovals[i]; dv != ov {
			dvals[i] = (dv + ov) / 2
		}
	}
}

func averageAlignedBranching(dst, a, b []float64) {
	for i := range dst {
		v := a[i]
		if bv := b[i]; v != bv {
			v = (v + bv) / 2
		}
		dst[i] = v
	}
}

func mergeValsIntoBranching(dvals []float64, pi, qi []uint16, pvals, qvals []float64) {
	j := 0
	for i := range pi {
		v := pvals[i]
		if j < len(qi) && qi[j] == pi[i] {
			if qv := qvals[j]; v != qv {
				v = (v + qv) / 2
			}
			j++
		}
		dvals[i] = v
	}
}

func unionBuildBranching(didx []uint16, dvals []float64, pi, qi []uint16, pvals, qvals []float64) {
	i, j := 0, 0
	for k := range didx {
		switch {
		case i < len(pi) && j < len(qi) && pi[i] == qi[j]:
			v := pvals[i]
			if qv := qvals[j]; v != qv {
				v = (v + qv) / 2
			}
			didx[k], dvals[k] = pi[i], v
			i++
			j++
		case j >= len(qi) || (i < len(pi) && pi[i] < qi[j]):
			didx[k], dvals[k] = pi[i], pvals[i]
			i++
		default:
			didx[k], dvals[k] = qi[j], qvals[j]
			j++
		}
	}
}

// unionScanAllCells is the comparison scan that kept comparing values after
// the first difference.
func unionScanAllCells(pi, qi []uint16, pvals, qvals []float64) (union int, valsEqual bool) {
	i, j := 0, 0
	valsEqual = true
	for i < len(pi) && j < len(qi) {
		switch {
		case pi[i] == qi[j]:
			if pvals[i] != qvals[j] {
				valsEqual = false
			}
			i++
			j++
		case pi[i] < qi[j]:
			i++
		default:
			j++
		}
		union++
	}
	return union + len(pi) - i + len(qi) - j, valsEqual
}

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v (%#x), the branching kernel gives %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// adversaries returns the finite values at which an unconditional
// midpoint differs from the branching merge or could round differently:
// zeros of both signs, subnormals, 1-ulp neighbours, and magnitudes whose sum
// overflows, each with both signs.
func adversaries() []float64 {
	const tiny, huge = math.SmallestNonzeroFloat64, math.MaxFloat64
	minNormal := math.Float64frombits(0x0010000000000000)
	pos := []float64{
		0, tiny, 3 * tiny, math.Nextafter(minNormal, 0), minNormal,
		1, math.Nextafter(1, 2), math.Nextafter(1, 0), 0.1, 3.5,
		huge / 2, math.Nextafter(huge/2, huge), math.Nextafter(huge, 0), huge,
	}
	all := make([]float64, 0, 2*len(pos))
	for _, x := range pos {
		all = append(all, x, -x)
	}
	return all
}

// kernelCase is one input every value kernel is run on: sorted cell sets pi
// and qi with their values.
type kernelCase struct {
	pi, qi       []uint16
	pvals, qvals []float64
}

// checkKernels runs the three branch-free kernels and unionScan on c against
// their oracles. The aligned kernels run when the cell sets are equal, the
// superset kernel when either cell set contains the other.
func checkKernels(t *testing.T, label string, c kernelCase) {
	t.Helper()
	union, valsEqual := unionScan(c.pi, c.qi, c.pvals, c.qvals)
	wantUnion, wantEqual := unionScanAllCells(c.pi, c.qi, c.pvals, c.qvals)
	if union != wantUnion || valsEqual != wantEqual {
		t.Fatalf("%s: unionScan = (%d, %v), want (%d, %v)", label, union, valsEqual, wantUnion, wantEqual)
	}

	didx, dvals := make([]uint16, union), make([]float64, union)
	widx, wvals := make([]uint16, union), make([]float64, union)
	unionBuild(didx, dvals, c.pi, c.qi, c.pvals, c.qvals)
	unionBuildBranching(widx, wvals, c.pi, c.qi, c.pvals, c.qvals)
	for i := range widx {
		if didx[i] != widx[i] {
			t.Fatalf("%s: unionBuild cell %d is %d, want %d", label, i, didx[i], widx[i])
		}
	}
	sameBits(t, label+": unionBuild", dvals, wvals)

	if union == len(c.pi) {
		got, want := make([]float64, union), make([]float64, union)
		mergeValsInto(got, c.pi, c.qi, c.pvals, c.qvals, false)
		mergeValsIntoBranching(want, c.pi, c.qi, c.pvals, c.qvals)
		sameBits(t, label+": mergeValsInto", got, want)
		sameBits(t, label+": mergeValsInto against unionBuild", got, wvals)
	}
	if union == len(c.qi) {
		// The q side is the superset: the values must still be unionBuild's,
		// which passes p's value first.
		got := make([]float64, union)
		mergeValsInto(got, c.qi, c.pi, c.qvals, c.pvals, true)
		sameBits(t, label+": mergeValsInto of a q superset", got, wvals)
	}
	if union == len(c.pi) && union == len(c.qi) {
		got, want := make([]float64, union), make([]float64, union)
		averageAligned(got, c.pvals, c.qvals)
		averageAlignedBranching(want, c.pvals, c.qvals)
		sameBits(t, label+": averageAligned", got, want)

		got, want = append(got[:0], c.pvals...), append(want[:0], c.pvals...)
		averageAligned(got, got, c.qvals)
		averageIntoBranching(want, c.qvals)
		sameBits(t, label+": averageAligned in place", got, want)
	}
}

func seq(n int) []uint16 {
	idx := make([]uint16, n)
	for i := range idx {
		idx[i] = uint16(i)
	}
	return idx
}

// TestMergeKernelsMatchBranchingOnAdversaries: on every ordered pair of the
// adversarial values the branch-free kernels must give exactly the bits the
// branching loops gave.
func TestMergeKernelsMatchBranchingOnAdversaries(t *testing.T) {
	t.Run("f64", testMergeKernelsMatchBranchingOnAdversaries)
}

func testMergeKernelsMatchBranchingOnAdversaries(t *testing.T) {
	adv := adversaries()
	var p, q []float64
	for _, a := range adv {
		for _, b := range adv {
			p, q = append(p, a), append(q, b)
		}
	}
	all := seq(len(p))
	checkKernels(t, "every ordered pair", kernelCase{all, all, p, q})

	// The same pairs with every third cell missing from q (superset path) and
	// with p and q each missing a different residue class (general union).
	var qi, pi []uint16
	var qv, pv []float64
	for i := range p {
		if i%3 != 0 {
			qi, qv = append(qi, uint16(i)), append(qv, q[i])
		}
		if i%5 != 1 {
			pi, pv = append(pi, uint16(i)), append(pv, p[i])
		}
	}
	checkKernels(t, "q a subset", kernelCase{all, qi, p, qv})
	checkKernels(t, "overlapping sets", kernelCase{pi, qi, pv, qv})
}

// TestMergeKernelsMatchBranchingOnGossipReplay is the randomized half of the
// kernel pin. It replays random push-pull averaging over n value
// arrays through both kernel families side by side. Values start as a mix of
// adversaries and normal variates and every third exchange re-seeds a few
// cells, so the replay keeps passing through the states that matter: mostly
// equal arrays with scattered differences, and midpoints of extreme values.
func TestMergeKernelsMatchBranchingOnGossipReplay(t *testing.T) {
	t.Run("f64", testMergeKernelsMatchBranchingOnGossipReplay)
}

func testMergeKernelsMatchBranchingOnGossipReplay(t *testing.T) {
	const n, cells, steps = 8, 400, 600
	rng := rand.New(rand.NewSource(11))
	adv := adversaries()
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return adv[rng.Intn(len(adv))]
		}
		return rng.NormFloat64()
	}
	subset := func() []uint16 {
		var idx []uint16
		for c := 0; c < cells; c++ {
			if rng.Intn(4) != 0 {
				idx = append(idx, uint16(c))
			}
		}
		return idx
	}
	gather := func(vals []float64, idx []uint16) []float64 {
		out := make([]float64, len(idx))
		for k, c := range idx {
			out[k] = vals[c]
		}
		return out
	}
	vals := make([][]float64, n)
	for i := range vals {
		vals[i] = make([]float64, cells)
		for c := range vals[i] {
			vals[i][c] = draw()
		}
	}
	all := seq(cells)
	for step := 0; step < steps; step++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		label := fmt.Sprintf("step %d (%d,%d)", step, i, j)
		checkKernels(t, label, kernelCase{all, all, vals[i], vals[j]})
		pi, qi := subset(), subset()
		checkKernels(t, label+" subsets", kernelCase{pi, qi, gather(vals[i], pi), gather(vals[j], qi)})
		checkKernels(t, label+" superset", kernelCase{all, qi, vals[i], gather(vals[j], qi)})

		averageAligned(vals[i], vals[i], vals[j])
		copy(vals[j], vals[i])
		if step%3 == 0 {
			for k := 0; k < 5; k++ {
				vals[rng.Intn(n)][rng.Intn(cells)] = draw()
			}
		}
	}
}
