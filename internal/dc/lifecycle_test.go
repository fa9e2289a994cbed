package dc

import (
	"testing"

	"github.com/glap-sim/glap/internal/sim"
)

func TestSetLifecycleValidation(t *testing.T) {
	c := genCluster(t, 5, 10, 30, 3, false, 0)
	if err := c.SetLifecycle(99, 1, 5); err == nil {
		t.Fatal("bad id accepted")
	}
	if err := c.SetLifecycle(0, -1, 5); err == nil {
		t.Fatal("negative arrival accepted")
	}
	if err := c.SetLifecycle(0, 5, 5); err == nil {
		t.Fatal("empty lifetime accepted")
	}
	rng := sim.NewRNG(1)
	c.PlaceRandom(rng.Intn)
	if err := c.SetLifecycle(0, 1, 5); err == nil {
		t.Fatal("lifecycle change after placement accepted")
	}
}

func TestLifecycleArrivalAndDeparture(t *testing.T) {
	c := genCluster(t, 5, 10, 30, 3, false, 0)
	if err := c.SetLifecycle(0, 5, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLifecycle(1, 3, -1); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	c.PlaceRandom(rng.Intn)
	if c.VMs[0].Present() || c.VMs[1].Present() {
		t.Fatal("future arrivals must not be pre-placed")
	}
	if c.PresentVMs() != 8 {
		t.Fatalf("present = %d, want 8", c.PresentVMs())
	}

	c.AdvanceRound(3)
	if !c.VMs[1].Present() || c.VMs[0].Present() {
		t.Fatal("round 3: only VM 1 should have arrived")
	}
	c.AdvanceRound(5)
	if !c.VMs[0].Present() {
		t.Fatal("round 5: VM 0 should have arrived")
	}
	if c.VMs[0].AvgDemand() != c.VMs[0].CurDemand() {
		t.Fatal("arrival should restart demand monitoring")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	c.AdvanceRound(10)
	if c.VMs[0].Present() {
		t.Fatal("round 10: VM 0 should have departed")
	}
	if !c.VMs[0].Departed() {
		t.Fatal("departed flag not set")
	}
	c.AdvanceRound(11)
	if c.VMs[0].Present() {
		t.Fatal("departed VM returned")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLifecycleRequestedCPUOnlyWhilePresent(t *testing.T) {
	c := genCluster(t, 5, 10, 30, 3, false, 0)
	if err := c.SetLifecycle(0, 10, 12); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	c.PlaceRandom(rng.Intn)
	for r := 1; r < 9; r++ {
		c.AdvanceRound(r)
	}
	if got := c.VMs[0].DegradationRatio(); got != 0 {
		t.Fatalf("absent VM accrued degradation ratio %g", got)
	}
	// requestedCPU must be zero while absent: Present()==false all along.
	if c.vmRequested[0] != 0 {
		t.Fatalf("absent VM accrued %g requested CPU", c.vmRequested[0])
	}
	c.AdvanceRound(10)
	c.AdvanceRound(11)
	if c.vmRequested[0] <= 0 {
		t.Fatal("present VM accrued no requested CPU")
	}
}

func TestLifecycleCachedSumsStayConsistent(t *testing.T) {
	c := genCluster(t, 5, 10, 30, 3, false, 0)
	for id := 0; id < 5; id++ {
		if err := c.SetLifecycle(id, id+1, id+10); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(2)
	c.PlaceRandom(rng.Intn)
	for r := 1; r < 25; r++ {
		c.AdvanceRound(r)
		for _, pm := range c.PMs {
			var want Vec
			for _, id := range pm.VMIDs() {
				want = want.Add(c.VMs[id].CurAbs())
			}
			got := c.CurUtil(pm)
			ref := want.Div(pm.Spec.Capacity)
			for res := 0; res < NumResources; res++ {
				d := got[res] - ref[res]
				if d > 1e-9 || d < -1e-9 {
					t.Fatalf("round %d PM %d: cached %v, recomputed %v", r, pm.ID, got, ref)
				}
			}
		}
	}
	// All five churned VMs have departed by round 15.
	if got := c.PresentVMs(); got != 5 {
		t.Fatalf("present = %d, want the 5 permanent VMs", got)
	}
}

// TestLifecycleRetryKeepsRunningAverage pins the arrival-retry fix: when an
// arriving VM finds no powered PM, its demand monitoring must be restarted
// exactly once (at arrival), not wiped again on every retry round, and each
// failed attempt must be surfaced through FailedPlacements.
func TestLifecycleRetryKeepsRunningAverage(t *testing.T) {
	c := genCluster(t, 5, 10, 30, 3, false, 0)
	for id := range c.VMs {
		if err := c.SetLifecycle(id, 2, -1); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	c.PlaceRandom(rng.Intn) // no-op: every VM arrives later
	for _, pm := range c.PMs {
		if err := c.SetPMOn(pm, false); err != nil {
			t.Fatal(err)
		}
	}
	// Rounds 2..4: arrivals retry against a fully powered-off cluster.
	for r := 1; r <= 4; r++ {
		c.AdvanceRound(r)
	}
	if c.PresentVMs() != 0 {
		t.Fatalf("placed %d VMs on a powered-off cluster", c.PresentVMs())
	}
	wantFailed := int64(3 * len(c.VMs)) // rounds 2, 3, 4
	if c.FailedPlacements != wantFailed {
		t.Fatalf("FailedPlacements = %d, want %d", c.FailedPlacements, wantFailed)
	}
	vm := c.VMs[0]
	if c.vmCount[vm.ID] != 1 {
		t.Fatalf("monitoring count = %d before placement, want 1", c.vmCount[vm.ID])
	}
	// Power back up: round 5 places everyone, later rounds fold samples into
	// the running average seeded at arrival.
	for _, pm := range c.PMs {
		if err := c.SetPMOn(pm, true); err != nil {
			t.Fatal(err)
		}
	}
	c.AdvanceRound(5)
	if c.PresentVMs() != len(c.VMs) {
		t.Fatalf("placed %d of %d VMs after power-up", c.PresentVMs(), len(c.VMs))
	}
	if c.FailedPlacements != wantFailed {
		t.Fatalf("FailedPlacements moved to %d after successful placement", c.FailedPlacements)
	}
	c.AdvanceRound(6)
	if c.vmCount[vm.ID] != 3 {
		// Seed at arrival (1) + placement round sample + round 6 sample.
		t.Fatalf("monitoring count = %d after two placed rounds, want 3", c.vmCount[vm.ID])
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
