package qlearn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The branching value kernels the branch-free ones replaced, kept verbatim as
// oracles: they define, bit for bit, what a merge must produce.

func averageIntoBranching[V value](dvals, ovals []V) {
	for i := range dvals {
		if dv, ov := dvals[i], ovals[i]; dv != ov {
			dvals[i] = V((float64(dv) + float64(ov)) / 2)
		}
	}
}

func averageAlignedBranching[V value](dst, a, b []V) {
	for i := range dst {
		v := a[i]
		if bv := b[i]; v != bv {
			v = V((float64(v) + float64(bv)) / 2)
		}
		dst[i] = v
	}
}

func mergeValsIntoBranching[V value](dvals []V, pi, qi []uint16, pvals, qvals []V) {
	j := 0
	for i := range pi {
		v := pvals[i]
		if j < len(qi) && qi[j] == pi[i] {
			if qv := qvals[j]; v != qv {
				v = V((float64(v) + float64(qv)) / 2)
			}
			j++
		}
		dvals[i] = v
	}
}

func unionBuildBranching[V value](didx []uint16, dvals []V, pi, qi []uint16, pvals, qvals []V) {
	i, j := 0, 0
	for k := range didx {
		switch {
		case i < len(pi) && j < len(qi) && pi[i] == qi[j]:
			v := pvals[i]
			if qv := qvals[j]; v != qv {
				v = V((float64(v) + float64(qv)) / 2)
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
func unionScanAllCells[V value](pi, qi []uint16, pvals, qvals []V) (union int, valsEqual bool) {
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

// bitsOf returns v's bit pattern in its own tier.
func bitsOf[V value](v V) uint64 {
	switch x := any(v).(type) {
	case float32:
		return uint64(math.Float32bits(x))
	case float64:
		return math.Float64bits(x)
	}
	panic("unreachable")
}

func sameBits[V value](t *testing.T, label string, got, want []V) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("%s: value %d is %v (%#x), the branching kernel gives %v (%#x)",
				label, i, got[i], bitsOf(got[i]), want[i], bitsOf(want[i]))
		}
	}
}

// adversaries returns the finite values of tier V at which an unconditional
// midpoint differs from the branching merge or could round differently:
// zeros of both signs, subnormals, 1-ulp neighbours, and magnitudes whose sum
// overflows, each with both signs.
func adversaries[V value]() []V {
	var pos []V
	switch any(V(0)).(type) {
	case float32:
		const tiny, huge = math.SmallestNonzeroFloat32, math.MaxFloat32
		minNormal := math.Float32frombits(0x00800000)
		for _, x := range []float32{
			0, tiny, 3 * tiny, math.Nextafter32(minNormal, 0), minNormal,
			1, math.Nextafter32(1, 2), math.Nextafter32(1, 0), 0.1, 3.5,
			huge / 2, math.Nextafter32(huge/2, huge), math.Nextafter32(huge, 0), huge,
		} {
			pos = append(pos, V(x))
		}
	default:
		const tiny, huge = math.SmallestNonzeroFloat64, math.MaxFloat64
		minNormal := math.Float64frombits(0x0010000000000000)
		for _, x := range []float64{
			0, tiny, 3 * tiny, math.Nextafter(minNormal, 0), minNormal,
			1, math.Nextafter(1, 2), math.Nextafter(1, 0), 0.1, 3.5,
			huge / 2, math.Nextafter(huge/2, huge), math.Nextafter(huge, 0), huge,
		} {
			pos = append(pos, V(x))
		}
	}
	all := make([]V, 0, 2*len(pos))
	for _, x := range pos {
		all = append(all, x, -x)
	}
	return all
}

// kernelCase is one input every value kernel is run on: sorted cell sets pi
// and qi with their values.
type kernelCase[V value] struct {
	pi, qi       []uint16
	pvals, qvals []V
}

// checkKernels runs the four branch-free kernels and unionScan on c against
// their oracles. The aligned kernels run when the cell sets are equal, the
// superset kernel when qi ⊆ pi.
func checkKernels[V value](t *testing.T, label string, c kernelCase[V]) {
	t.Helper()
	union, valsEqual := unionScan(c.pi, c.qi, c.pvals, c.qvals)
	wantUnion, wantEqual := unionScanAllCells(c.pi, c.qi, c.pvals, c.qvals)
	if union != wantUnion || valsEqual != wantEqual {
		t.Fatalf("%s: unionScan = (%d, %v), want (%d, %v)", label, union, valsEqual, wantUnion, wantEqual)
	}

	didx, dvals := make([]uint16, union), make([]V, union)
	widx, wvals := make([]uint16, union), make([]V, union)
	unionBuild(didx, dvals, c.pi, c.qi, c.pvals, c.qvals)
	unionBuildBranching(widx, wvals, c.pi, c.qi, c.pvals, c.qvals)
	for i := range widx {
		if didx[i] != widx[i] {
			t.Fatalf("%s: unionBuild cell %d is %d, want %d", label, i, didx[i], widx[i])
		}
	}
	sameBits(t, label+": unionBuild", dvals, wvals)

	if union == len(c.pi) {
		got, want := make([]V, union), make([]V, union)
		mergeValsInto(got, c.pi, c.qi, c.pvals, c.qvals)
		mergeValsIntoBranching(want, c.pi, c.qi, c.pvals, c.qvals)
		sameBits(t, label+": mergeValsInto", got, want)
	}
	if union == len(c.pi) && union == len(c.qi) {
		got, want := make([]V, union), make([]V, union)
		averageAligned(got, c.pvals, c.qvals)
		averageAlignedBranching(want, c.pvals, c.qvals)
		sameBits(t, label+": averageAligned", got, want)

		got, want = append(got[:0], c.pvals...), append(want[:0], c.pvals...)
		averageInto(got, c.qvals)
		averageIntoBranching(want, c.qvals)
		sameBits(t, label+": averageInto", got, want)
	}
}

func seq(n int) []uint16 {
	idx := make([]uint16, n)
	for i := range idx {
		idx[i] = uint16(i)
	}
	return idx
}

func testKernelAdversaries[V value](t *testing.T) {
	adv := adversaries[V]()
	var p, q []V
	for _, a := range adv {
		for _, b := range adv {
			p, q = append(p, a), append(q, b)
		}
	}
	all := seq(len(p))
	checkKernels(t, "every ordered pair", kernelCase[V]{all, all, p, q})

	// The same pairs with every third cell missing from q (superset path) and
	// with p and q each missing a different residue class (general union).
	var qi, pi []uint16
	var qv, pv []V
	for i := range p {
		if i%3 != 0 {
			qi, qv = append(qi, uint16(i)), append(qv, q[i])
		}
		if i%5 != 1 {
			pi, pv = append(pi, uint16(i)), append(pv, p[i])
		}
	}
	checkKernels(t, "q a subset", kernelCase[V]{all, qi, p, qv})
	checkKernels(t, "overlapping sets", kernelCase[V]{pi, qi, pv, qv})
}

// TestMergeKernelsMatchBranchingOnAdversaries: on every ordered pair of the
// adversarial values the branch-free kernels must give exactly the bits the
// branching loops gave, on both tiers.
func TestMergeKernelsMatchBranchingOnAdversaries(t *testing.T) {
	t.Run("f64", testKernelAdversaries[float64])
	t.Run("f32", testKernelAdversaries[float32])
}

// testKernelGossipReplay replays random push-pull averaging over n value
// arrays through both kernel families side by side. Values start as a mix of
// adversaries and normal variates and every third exchange re-seeds a few
// cells, so the replay keeps passing through the states that matter: mostly
// equal arrays with scattered differences, and midpoints of extreme values.
func testKernelGossipReplay[V value](t *testing.T) {
	const n, cells, steps = 8, 400, 600
	rng := rand.New(rand.NewSource(11))
	adv := adversaries[V]()
	draw := func() V {
		if rng.Intn(3) == 0 {
			return adv[rng.Intn(len(adv))]
		}
		return V(rng.NormFloat64())
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
	gather := func(vals []V, idx []uint16) []V {
		out := make([]V, len(idx))
		for k, c := range idx {
			out[k] = vals[c]
		}
		return out
	}
	vals := make([][]V, n)
	for i := range vals {
		vals[i] = make([]V, cells)
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
		checkKernels(t, label, kernelCase[V]{all, all, vals[i], vals[j]})
		pi, qi := subset(), subset()
		checkKernels(t, label+" subsets", kernelCase[V]{pi, qi, gather(vals[i], pi), gather(vals[j], qi)})
		checkKernels(t, label+" superset", kernelCase[V]{all, qi, vals[i], gather(vals[j], qi)})

		averageInto(vals[i], vals[j])
		copy(vals[j], vals[i])
		if step%3 == 0 {
			for k := 0; k < 5; k++ {
				vals[rng.Intn(n)][rng.Intn(cells)] = draw()
			}
		}
	}
}

// TestMergeKernelsMatchBranchingOnGossipReplay is the randomized half of the
// kernel pin, on both tiers.
func TestMergeKernelsMatchBranchingOnGossipReplay(t *testing.T) {
	t.Run("f64", testKernelGossipReplay[float64])
	t.Run("f32", testKernelGossipReplay[float32])
}
