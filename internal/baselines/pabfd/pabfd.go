// Package pabfd implements the centralized baseline of the evaluation:
// Beloglazov & Buyya's PABFD ("Optimal online deterministic algorithms and
// adaptive heuristics for energy and performance efficient dynamic
// consolidation of virtual machines in cloud data centers", CCPE 2012). A
// central controller monitors every host, derives a per-round adaptive upper
// CPU threshold from the Median Absolute Deviation (MAD) of recent host
// utilisation history, sheds VMs from hosts above the threshold (Minimum
// Migration Time selection), evacuates the least-utilised hosts, and places
// migrating VMs with Power-Aware Best Fit Decreasing.
package pabfd

import (
	"slices"

	"github.com/glap-sim/glap/internal/baselines"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
)

// Beloglazov & Buyya's configuration.
const (
	// safety is the MAD safety parameter s in T_u = 1 − s·MAD
	// (Beloglazov's evaluation uses s = 2.5).
	safety = 2.5
	// historyLen bounds the per-host utilisation history window.
	historyLen = 30
	// fallbackThreshold is used until a host has enough history for a MAD
	// estimate.
	fallbackThreshold = 0.8
)

// Controller is the centralized PABFD manager. It is not a gossip protocol:
// Install hooks it to run once per round with global knowledge.
type Controller struct {
	B *policy.Binding
	// Period is the controller's monitoring/optimisation period in rounds.
	// Beloglazov's controller runs every 5 minutes while the simulation
	// rounds are 2 minutes, so the default is 3 rounds: between controller
	// passes, demand keeps moving and overloads persist unmitigated — the
	// structural disadvantage of centralized DVMC the paper highlights.
	Period int

	// wins holds each host's utilisation window. The rest is Step's scratch,
	// reused from call to call (a run builds its own Controller): the
	// per-host thresholds, overload marks and booked plan demand, the
	// pending VMs, a VM list and its keyed sort, and planPlacement's
	// destinations by VM ID.
	wins       []window
	th         []float64
	overloaded []bool
	extra      []dc.Vec
	pending    []*dc.VM
	vms        []*dc.VM
	keyed      []baselines.KeyedVM
	plan       []*dc.PM
}

// window is one host's utilisation history: the last len(ring) samples in
// arrival order, and the same samples in ascending order. One binary-search
// delete and one insert per sample keep the second sorted, so the median and
// the MAD need no sort.
type window struct {
	ring   []float64
	sorted []float64 // len is the number of samples held
	head   int       // ring slot of the oldest sample once the ring is full
}

// newWindows returns n empty windows of size samples each, on two shared
// backings.
func newWindows(n, size int) []window {
	ring, sorted := make([]float64, n*size), make([]float64, n*size)
	w := make([]window, n)
	for i := range w {
		lo, hi := i*size, (i+1)*size
		w[i] = window{ring: ring[lo:hi:hi], sorted: sorted[lo:lo:hi]}
	}
	return w
}

// record appends sample u, evicting the oldest sample once the window is
// full.
func (w *window) record(u float64) {
	size, n := len(w.ring), len(w.sorted)
	if n < size {
		w.ring[n] = u
	} else {
		old := w.ring[w.head]
		w.ring[w.head] = u
		if w.head++; w.head == size {
			w.head = 0
		}
		i, _ := slices.BinarySearch(w.sorted, old)
		w.sorted = slices.Delete(w.sorted, i, i+1)
	}
	i, _ := slices.BinarySearch(w.sorted, u)
	w.sorted = slices.Insert(w.sorted, i, u)
}

// mad returns the Median Absolute Deviation of the samples held (at least
// one), bit for bit what sorting a copy, taking its median m, sorting the
// deviations |x − m| and taking their median gives. The samples below index
// n/2 lie at or under m and the rest at or over it, so walking down from the
// split and up from it yields two ascending deviation runs (rounding is
// monotone); merging them up to the middle reads the sorted deviations'
// median.
func (w *window) mad() float64 {
	s := w.sorted
	n := len(s)
	m := s[n/2]
	if n%2 == 0 {
		m = (s[n/2-1] + m) / 2
	}
	lo, hi := n/2-1, n/2
	var prev, cur float64
	for k := 0; k <= n/2; k++ {
		prev = cur
		if lo >= 0 && (hi == n || absDev(s[lo], m) <= absDev(s[hi], m)) {
			cur = absDev(s[lo], m)
			lo--
		} else {
			cur = absDev(s[hi], m)
			hi++
		}
	}
	if n%2 == 1 {
		return cur
	}
	return (prev + cur) / 2
}

func absDev(x, m float64) float64 {
	d := x - m
	if d < 0 {
		d = -d
	}
	return d
}

// Install wires a PABFD controller into engine e; it executes at the start
// of every round, after workload demand is refreshed.
func Install(e *sim.Engine, b *policy.Binding) *Controller {
	c := &Controller{B: b, Period: 3}
	e.BeforeRound(func(e *sim.Engine, round int) {
		if c.Period > 1 && round%c.Period != 0 {
			return
		}
		c.Step(round)
	})
	return c
}

// Step runs one full controller pass: record history, compute thresholds,
// mitigate overloads, then consolidate underloaded hosts.
func (c *Controller) Step(round int) {
	cl := c.B.C
	if c.wins == nil {
		n := len(cl.PMs)
		c.wins = newWindows(n, historyLen)
		c.th, c.overloaded, c.extra = make([]float64, n), make([]bool, n), make([]dc.Vec, n)
	}
	// 1. Record utilisation history for active hosts.
	for _, pm := range cl.PMs {
		if pm.On() {
			c.wins[pm.ID].record(cl.CurUtil(pm)[dc.CPU])
		}
	}
	th := c.th
	for _, pm := range cl.PMs {
		th[pm.ID] = c.threshold(pm.ID)
	}

	// 2. Overload mitigation: collect VMs from hosts above their threshold
	// using Minimum Migration Time (smallest memory first).
	pending := c.pending[:0]
	overloaded := c.overloaded
	clear(overloaded)
	for _, pm := range cl.PMs {
		if !pm.On() {
			continue
		}
		if cl.CurUtil(pm)[dc.CPU] <= th[pm.ID] {
			continue
		}
		overloaded[pm.ID] = true
		c.vms = pm.AppendVMs(c.vms[:0])
		c.keyed = baselines.AppendKeyed(c.keyed[:0], c.vms, dc.Mem)
		baselines.SortAscending(c.keyed)
		for _, k := range c.keyed {
			if cl.CurUtil(pm)[dc.CPU] <= th[pm.ID] {
				break
			}
			// Detach decision is made here; actual migration happens at
			// placement. Model it as migrate-on-place: mark pending.
			pending = append(pending, k.VM)
			// Simulate removal for the threshold check by testing the
			// utilisation without this VM.
			if c.utilWithout(pm, pending) <= th[pm.ID] {
				break
			}
		}
	}
	c.pending = pending
	c.place(pending, th, overloaded)

	// 3. Power off hosts that are already empty.
	for _, pm := range cl.PMs {
		if pm.On() && pm.NumVMs() == 0 {
			_ = c.B.PowerOff(pm.ID)
		}
	}

	// 4. Underload consolidation: repeatedly try to fully evacuate the
	// least-utilised active host. The loop is bounded by the host count:
	// each successful pass powers one host off.
	for iter := 0; iter < len(cl.PMs); iter++ {
		src := c.leastUtilisedEvacuable(th, overloaded)
		if src == nil {
			break
		}
		c.vms = src.AppendVMs(c.vms[:0])
		if !c.planPlacement(c.vms, th, src.ID) {
			break
		}
		// Execute the plan in ascending VM ID order, not the placement
		// order it was computed in.
		for _, vm := range c.vms {
			_ = cl.Migrate(vm, c.plan[vm.ID])
		}
		_ = c.B.TryPowerOffIfEmpty(src.ID)
	}
}

// threshold returns host id's adaptive upper threshold T_u = 1 − s·MAD,
// falling back to the static default while history is short. The result is
// floored so pathological MADs cannot force the threshold to zero.
func (c *Controller) threshold(id int) float64 {
	w := &c.wins[id]
	if len(w.sorted) < 10 {
		return fallbackThreshold
	}
	t := 1 - safety*w.mad()
	if t < 0.4 {
		t = 0.4
	}
	if t > 1 {
		t = 1
	}
	return t
}

// utilWithout returns pm's CPU utilisation excluding the pending VMs still
// attached to it.
func (c *Controller) utilWithout(pm *dc.PM, pending []*dc.VM) float64 {
	u := c.B.C.CurUtil(pm)[dc.CPU]
	for _, vm := range pending {
		if vm.Host() == pm.ID {
			u -= vm.CurAbs()[dc.CPU] / pm.Spec.Capacity[dc.CPU]
		}
	}
	return u
}

// place runs Power-Aware Best Fit Decreasing over the pending VMs: VMs in
// decreasing current CPU demand, each to the active host with the least
// power increase (ties: highest resulting utilisation) that keeps CPU at or
// below its threshold and memory within capacity. When no active host fits,
// an off host is powered on — the centralized controller, unlike the
// distributed protocols, can reactivate machines.
func (c *Controller) place(pending []*dc.VM, th []float64, exclude []bool) {
	cl := c.B.C
	c.keyed = baselines.AppendKeyed(c.keyed[:0], pending, dc.CPU)
	baselines.SortDescending(c.keyed)
	for _, k := range c.keyed {
		vm := k.VM
		dst := c.bestFit(vm, th, exclude)
		if dst == nil {
			dst = c.powerOnOne()
		}
		if dst == nil || dst.ID == vm.Host() {
			continue
		}
		_ = cl.Migrate(vm, dst)
	}
}

// planPlacement computes a destination for each of vms without performing
// the migrations, so full-evacuation attempts are atomic, and reports
// whether every VM found one; the plan is c.plan[vm.ID]. It accounts for the
// capacity consumed by earlier VMs in the same plan, and never places on PM
// exclude.
func (c *Controller) planPlacement(vms []*dc.VM, th []float64, exclude int) bool {
	cl := c.B.C
	if len(c.plan) < len(cl.VMs) {
		c.plan = make([]*dc.PM, len(cl.VMs))
	}
	extra := c.extra
	c.keyed = baselines.AppendKeyed(c.keyed[:0], vms, dc.CPU)
	baselines.SortDescending(c.keyed)
	placed := 0
	for _, k := range c.keyed {
		vm := k.VM
		var best *dc.PM
		var bestU float64
		for _, pm := range cl.PMs {
			if !pm.On() || pm.ID == exclude || pm.ID == vm.Host() {
				continue
			}
			u := cl.CurUtil(pm).Add(extra[pm.ID].Div(pm.Spec.Capacity))
			after := u.Add(vm.CurAbs().Div(pm.Spec.Capacity))
			if after[dc.CPU] > th[pm.ID] || after[dc.Mem] > 1 {
				continue
			}
			if best == nil || after[dc.CPU] > bestU {
				best, bestU = pm, after[dc.CPU]
			}
		}
		if best == nil {
			break
		}
		c.plan[vm.ID] = best
		extra[best.ID] = extra[best.ID].Add(vm.CurAbs())
		placed++
	}
	// Return the booked demand to zero for the next plan.
	for _, k := range c.keyed[:placed] {
		extra[c.plan[k.VM.ID].ID] = dc.Vec{}
	}
	return placed == len(c.keyed)
}

// bestFit returns the powered host that can take vm with the least power
// increase, preferring the fullest feasible host.
func (c *Controller) bestFit(vm *dc.VM, th []float64, exclude []bool) *dc.PM {
	cl := c.B.C
	var best *dc.PM
	var bestPower, bestU float64
	for _, pm := range cl.PMs {
		if !pm.On() || exclude[pm.ID] || pm.ID == vm.Host() {
			continue
		}
		u := cl.CurUtil(pm)
		after := u.Add(vm.CurAbs().Div(pm.Spec.Capacity))
		if after[dc.CPU] > th[pm.ID] || after[dc.Mem] > 1 {
			continue
		}
		dPower := (pm.Spec.PowerMaxW - pm.Spec.PowerIdleW) * (after[dc.CPU] - u[dc.CPU])
		if best == nil || dPower < bestPower || (dPower == bestPower && after[dc.CPU] > bestU) {
			best, bestPower, bestU = pm, dPower, after[dc.CPU]
		}
	}
	return best
}

// powerOnOne reactivates the lowest-numbered off host, or returns nil when
// every host is already on.
func (c *Controller) powerOnOne() *dc.PM {
	for _, pm := range c.B.C.PMs {
		if !pm.On() {
			c.B.PowerOn(pm.ID)
			return pm
		}
	}
	return nil
}

// leastUtilisedEvacuable returns the active host with the lowest CPU
// utilisation that hosts at least one VM and was not overloaded this round,
// or nil when none qualifies.
func (c *Controller) leastUtilisedEvacuable(th []float64, overloaded []bool) *dc.PM {
	cl := c.B.C
	var best *dc.PM
	var bestU float64
	for _, pm := range cl.PMs {
		if !pm.On() || overloaded[pm.ID] || pm.NumVMs() == 0 {
			continue
		}
		u := cl.CurUtil(pm)[dc.CPU]
		if u > th[pm.ID] {
			continue
		}
		if best == nil || u < bestU {
			best, bestU = pm, u
		}
	}
	return best
}
