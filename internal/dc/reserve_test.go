package dc

import "testing"

func TestReserveShrinksFreeCapacity(t *testing.T) {
	c := genCluster(t, 4, 8, 10, 3, false, 2)
	c.AdvanceRound(1)
	pm := c.PMs[0]
	free := c.FreeCur(pm)
	d := Vec{free[CPU] / 2, free[Mem] / 2}
	if err := c.Reserve(pm, 1, d); err != nil {
		t.Fatal(err)
	}
	if got := c.FreeCurReserved(pm); !d.FitsWithin(got.Add(Vec{1e-9, 1e-9})) || got[CPU] >= free[CPU] {
		t.Fatalf("FreeCurReserved = %v, FreeCur = %v, reserved %v", got, free, d)
	}
	if c.FitsCurReserved(free, pm) {
		t.Fatal("full free capacity admitted despite open reservation")
	}
	if !c.FitsCurReserved(d, pm) {
		t.Fatal("fitting demand rejected")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReserveTokenLifecycle(t *testing.T) {
	c := genCluster(t, 4, 8, 10, 3, false, 2)
	c.AdvanceRound(1)
	pm := c.PMs[1]
	d := Vec{10, 10}
	if err := c.Reserve(pm, 7, d); err != nil {
		t.Fatal(err)
	}
	if err := c.Reserve(pm, 7, d); err == nil {
		t.Fatal("duplicate token accepted")
	}
	if c.OpenReservations() != 1 {
		t.Fatalf("OpenReservations = %d, want 1", c.OpenReservations())
	}
	if !c.ReleaseReservation(pm, 7) {
		t.Fatal("release of open token reported not found")
	}
	if c.ReleaseReservation(pm, 7) {
		t.Fatal("double release reported found")
	}
	if c.OpenReservations() != 0 {
		t.Fatalf("OpenReservations = %d after release, want 0", c.OpenReservations())
	}
	if got := c.Reserved(pm); got != (Vec{}) {
		t.Fatalf("Reserved = %v after release, want zero", got)
	}
}

func TestReservationBlocksPowerOff(t *testing.T) {
	c := genCluster(t, 4, 8, 10, 3, false, 2)
	c.AdvanceRound(1)
	// Find an empty powered PM (or empty one by construction).
	pm := c.PMs[2]
	for _, id := range pm.VMIDs() {
		vm := c.VMs[id]
		for _, dst := range c.PMs {
			if dst.ID != pm.ID && dst.On() {
				if err := c.Migrate(vm, dst); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	if err := c.Reserve(pm, 3, Vec{5, 5}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetPMOn(pm, false); err == nil {
		t.Fatal("power-off accepted with open reservation")
	}
	c.ReleaseReservation(pm, 3)
	if err := c.SetPMOn(pm, false); err != nil {
		t.Fatalf("power-off rejected after release: %v", err)
	}
	if err := c.Reserve(pm, 4, Vec{5, 5}); err == nil {
		t.Fatal("reservation accepted on powered-off PM")
	}
}
