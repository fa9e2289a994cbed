package glap

import (
	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
)

// This file preserves the pre-fusion Algorithm-1 training kernel as the
// test-only reference implementation (the qlearn.Sparse pattern): the
// profile multiset is materialised by slice duplication and every training
// iteration partitions it and runs four O(P) subset aggregation scans. It
// is written the way the paper states the algorithm, and it is the one
// oracle of the differential tests (TestLearnKernelDifferential pins the
// production kernel against it draw-for-draw) and the baseline
// BenchmarkTrainOnceReference measures beside BenchmarkTrainOnce. Both
// kernels consume the node stream identically: one Bernoulli coin per
// multiset element per attempt, then one Intn for the eviction pick.
//
// The only arithmetic differences are FP evaluation orders: the reference
// scans the sender subset skipping the evicted VM and scans the recipient
// subset, where the production kernel subtracts the evicted VM from the full
// sender sum and derives the recipient sums from the multiset totals. The
// orderings agree to an ulp, and the calibrated level state they feed
// quantises far more coarsely than that (boundaries at 0.1-wide utilisation
// steps), so the resulting Q-tables coincide exactly on every corpus the
// differential test replays — see DESIGN.md §7.

// profile is a VM workload profile as the paper exchanges it during the
// learning phase: current and average demand fractions plus the VM's nominal
// capacity. The production kernel works on the precomputed kernelProfile.
type profile struct {
	cur, avg dc.Vec
	cap      dc.Vec
}

func profileOf(vm *dc.VM) profile {
	return profile{cur: vm.CurDemand(), avg: vm.AvgDemand(), cap: vm.Spec.Capacity}
}

// refLearnProtocol is LearnProtocol running the reference kernel: same name,
// same node state, same utilisation gate and the same per-node streams, so a
// reference run is comparable draw-for-draw with a production run.
type refLearnProtocol struct {
	LearnProtocol
}

// Round implements sim.Protocol with the pre-fusion learning round: collect,
// materialise the duplicated multiset, train.
func (l *refLearnProtocol) Round(e *sim.Engine, n *sim.Node, round int) {
	rng := l.rng.For(e, n.ID, 0x61ea51)
	pm := l.B.PM(n)
	if l.B.C.AvgUtil(pm)[dc.CPU] > learnUtilThreshold {
		return
	}

	// Collect profiles: local VMs plus the VMs of one random neighbour.
	var profiles []profile
	for _, vm := range pm.AppendVMs(nil) {
		profiles = append(profiles, profileOf(vm))
	}
	if peer := cyclon.SelectPeer(e, n, rng); peer >= 0 {
		for _, vm := range l.B.C.PMs[peer].AppendVMs(nil) {
			profiles = append(profiles, profileOf(vm))
		}
	}
	if len(profiles) == 0 {
		return
	}

	// Duplicate profiles until the aggregate average CPU demand reaches
	// duplicationTargetUtil of PM capacity so that high and overloaded
	// states are visited during training.
	profiles = duplicateToCover(profiles, pm.Spec.Capacity, duplicationTargetUtil)

	st := TablesOf(e, n)
	for it := 0; it < learnIterations; it++ {
		l.refTrainOnce(rng, st, profiles, pm.Spec.Capacity)
	}
	st.Trained = true
}

// duplicateToCover replicates the profile set until its aggregate average
// CPU demand reaches target × capacity, appending the base profiles
// cyclically and capping the blowup at 64× the base size. coverCount
// computes the length of this multiset without materialising it.
func duplicateToCover(ps []profile, cap dc.Vec, target float64) []profile {
	sumCPU := 0.0
	for _, p := range ps {
		sumCPU += p.avg[dc.CPU] * p.cap[dc.CPU]
	}
	if sumCPU <= 0 {
		return ps
	}
	base := len(ps)
	for sumCPU < target*cap[dc.CPU] && len(ps) < 64*base {
		for i := 0; i < base && sumCPU < target*cap[dc.CPU]; i++ {
			ps = append(ps, ps[i])
			sumCPU += ps[i].avg[dc.CPU] * ps[i].cap[dc.CPU]
		}
	}
	return ps
}

// refTrainOnce is the pre-fusion training iteration: partition the
// materialised profiles into a virtual sender and a virtual recipient, move
// one random sender VM, and apply updateOUT / updateIN per Equation 1.
// Pre-action states use average demand; post-action states use current
// demand (Figure 3).
func (l *LearnProtocol) refTrainOnce(rng *sim.RNG, st *NodeTables, profiles []profile, cap dc.Vec) {
	// Random partition with a freshly drawn split bias per iteration (see
	// trainOnce for the rationale).
	var sender, target []int
	pSender := 0.15 + 0.7*rng.Float64()
	for attempt := 0; attempt < 8; attempt++ {
		sender, target = sender[:0], target[:0]
		for i := range profiles {
			if rng.Bernoulli(pSender) {
				sender = append(sender, i)
			} else {
				target = append(target, i)
			}
		}
		if len(sender) > 0 {
			break
		}
	}
	if len(sender) == 0 {
		return
	}
	pick := sender[rng.Intn(len(sender))]
	vm := profiles[pick]
	useAvg := !l.Cfg.CurrentDemandOnly
	actionDemand := vm.avg
	if !useAvg {
		actionDemand = vm.cur
	}
	action := LevelsOf(actionDemand).Action()

	// updateOUT: the sender's transition after evicting vm.
	sBefore := aggStateIdx(profiles, sender, -1, nil, cap, useAvg)
	sAfter := aggStateIdx(profiles, sender, pick, nil, cap, false)
	l.updateOut(st.Out, sBefore, action, sAfter)

	// updateIN: the recipient's transition after accepting vm.
	tBefore := aggStateIdx(profiles, target, -1, nil, cap, useAvg)
	tAfter := aggStateIdx(profiles, target, -1, &vm, cap, false)
	l.updateIn(st.In, tBefore, action, tAfter)
}

// aggStateIdx aggregates profiles[idx] for idx in subset (skipping skip),
// plus extra, into a calibrated state.
func aggStateIdx(profiles []profile, subset []int, skip int, extra *profile, cap dc.Vec, useAvg bool) qlearn.State {
	var sum dc.Vec
	for _, i := range subset {
		if i == skip {
			continue
		}
		d := profiles[i].cur
		if useAvg {
			d = profiles[i].avg
		}
		for r := 0; r < dc.NumResources; r++ {
			sum[r] += d[r] * profiles[i].cap[r]
		}
	}
	if extra != nil {
		d := extra.cur
		if useAvg {
			d = extra.avg
		}
		for r := 0; r < dc.NumResources; r++ {
			sum[r] += d[r] * extra.cap[r]
		}
	}
	return LevelsOf(sum.Div(cap)).State()
}
