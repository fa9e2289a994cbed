package dc

import "fmt"

// VM lifecycle: by default every VM exists for the whole run (the paper's
// setup). SetLifecycle gives a VM an arrival and departure round instead,
// enabling the dynamic-population experiments that motivate the paper's
// re-learning trigger ("if the arrival and departure rates of VMs exceed a
// threshold"). An arriving VM is placed by first-fit over nominal
// allocation using the cluster's placement randomness; a departing VM is
// detached and never returns.

// SetLifecycle schedules VM id to arrive at round arrive and depart at
// round depart (depart < 0 means never). It must be called before the
// simulation starts; VMs with arrive > 0 are skipped by PlaceRandom and
// join the cluster when their round comes.
func (c *Cluster) SetLifecycle(id, arrive, depart int) error {
	if id < 0 || id >= len(c.VMs) {
		return fmt.Errorf("dc: no VM %d", id)
	}
	if arrive < 0 || (depart >= 0 && depart <= arrive) {
		return fmt.Errorf("dc: invalid lifecycle [%d, %d)", arrive, depart)
	}
	if c.vmHost[id] >= 0 {
		return fmt.Errorf("dc: VM %d already placed; set lifecycles before placement", id)
	}
	c.vmArrive[id] = int32(arrive)
	c.vmDepart[id] = int32(depart)
	c.vmFlags[id] |= vmFlagPending
	return nil
}

// Present reports whether the VM is currently part of the cluster (arrived
// and not yet departed).
func (v *VM) Present() bool { return v.c.vmHost[v.ID] >= 0 }

// Departed reports whether the VM has left the cluster for good.
func (v *VM) Departed() bool { return v.c.vmFlags[v.ID]&vmFlagDeparted != 0 }

// PresentVMs returns the number of VMs currently placed.
func (c *Cluster) PresentVMs() int {
	n := 0
	for _, h := range c.vmHost {
		if h >= 0 {
			n++
		}
	}
	return n
}

// stepLifecycle performs arrivals and departures for round r. Departures
// run first so freed capacity is available to arrivals in the same round.
func (c *Cluster) stepLifecycle(r int) {
	for id := range c.VMs {
		if c.vmHost[id] >= 0 && c.vmDepart[id] >= 0 && r >= int(c.vmDepart[id]) {
			c.detach(c.VMs[id], c.PMs[c.vmHost[id]])
			c.vmHost[id] = -1
			c.vmFlags[id] |= vmFlagDeparted
		}
	}
	for id := range c.VMs {
		if c.vmHost[id] < 0 && c.vmFlags[id]&(vmFlagDeparted|vmFlagPending) == vmFlagPending && r >= int(c.vmArrive[id]) {
			// The current demand tracks the workload while the VM waits for
			// a slot, but monitoring restarts only once per arrival: a
			// placement retry in a later round must not wipe the running
			// average back to a single sample.
			sample := c.sample(id, r)
			c.vmCur[id] = Vec{sample.CPU, sample.Mem}
			if c.vmFlags[id]&vmFlagSeeded == 0 {
				c.vmAvg[id] = c.vmCur[id]
				c.vmCount[id] = 1
				c.vmFlags[id] |= vmFlagSeeded
			}
			if !c.placeArrival(c.VMs[id]) {
				c.FailedPlacements++
			}
		}
	}
}

// placeArrival places a newly arrived VM: random-first over powered PMs
// with nominal-allocation headroom, falling back to first-fit, then to
// stuffing — mirroring PlaceRandom's policy for the initial population. The
// allocation checks read the cluster-maintained per-PM allocation sums, so
// one arrival costs O(attempts), not O(PMs × occupancy) as the former
// re-summation of every probed PM's hosted list did.
//
// The stuffing fallback respects open reservations: capacity a target has
// promised to an in-flight migration is never handed to an arrival, so a
// message-passing protocol's accepted offer cannot be invalidated by the
// lifecycle machinery racing it. It reports whether the VM found a host;
// false means no admissible PM exists and the arrival retries next round.
func (c *Cluster) placeArrival(vm *VM) bool {
	intn := c.placeIntn
	if intn == nil {
		intn = func(n int) int { return int(vm.ID) % n }
	}
	need := vm.Spec.Capacity
	for attempt := 0; attempt < 2*len(c.PMs); attempt++ {
		p := intn(len(c.PMs))
		if !c.pmOn(p) {
			continue
		}
		if c.pmAllocSum[p].Add(need).FitsWithin(c.PMs[p].Spec.Capacity) {
			c.attach(vm, c.PMs[p])
			return true
		}
	}
	start := intn(len(c.PMs))
	for off := 0; off < len(c.PMs); off++ {
		p := (start + off) % len(c.PMs)
		if !c.pmOn(p) {
			continue
		}
		if c.pmAllocSum[p].Add(need).FitsWithin(c.PMs[p].Spec.Capacity) {
			c.attach(vm, c.PMs[p])
			return true
		}
	}
	// Over-subscribed by allocation: stuff onto a powered PM, preferring one
	// whose reservation-adjusted current headroom admits the VM's demand.
	cur := vm.CurAbs()
	for off := 0; off < len(c.PMs); off++ {
		p := (start + off) % len(c.PMs)
		if c.pmOn(p) && c.FitsCurReserved(cur, c.PMs[p]) {
			c.attach(vm, c.PMs[p])
			return true
		}
	}
	// Nothing has headroom: stuff onto a powered PM holding no reservations
	// (over-admission must stay expressible — it is how bad placement shows
	// up as SLA violation), but never onto one whose free capacity is spoken
	// for by an in-flight offer.
	for off := 0; off < len(c.PMs); off++ {
		p := (start + off) % len(c.PMs)
		if c.pmOn(p) && c.pmResCount[p] == 0 {
			c.attach(vm, c.PMs[p])
			return true
		}
	}
	return false
}
