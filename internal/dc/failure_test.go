package dc

import (
	"testing"

	"github.com/glap-sim/glap/internal/sim"
)

func TestCrashPMEvacuatesAndReleasesReservations(t *testing.T) {
	c := genCluster(t, 5, 10, 30, 3, false, 1)

	victim := c.PMs[0]
	if err := c.Reserve(victim, 1, Vec{100, 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.Reserve(victim, 2, Vec{50, 50}); err != nil {
		t.Fatal(err)
	}
	hosted := victim.VMIDs()

	rep, err := c.CrashPM(victim)
	if err != nil {
		t.Fatal(err)
	}
	if victim.On() {
		t.Fatal("crashed PM still powered")
	}
	if rep.ReservationsReleased != 2 {
		t.Fatalf("released %d reservations, want 2", rep.ReservationsReleased)
	}
	if c.OpenReservations() != 0 || c.Reserved(victim) != (Vec{}) {
		t.Fatal("crash left reservations open on the dead PM")
	}
	if rep.Evacuated+rep.Stranded != len(hosted) {
		t.Fatalf("evacuated %d + stranded %d != %d hosted", rep.Evacuated, rep.Stranded, len(hosted))
	}
	// 4 surviving ProLiants can absorb a fifth machine's micro VMs.
	if rep.Stranded != 0 {
		t.Fatalf("stranded %d VMs despite surviving headroom", rep.Stranded)
	}
	for _, id := range hosted {
		if h := c.VMs[id].Host(); h < 0 || h == victim.ID {
			t.Fatalf("VM %d hosted on %d after evacuating PM %d", id, h, victim.ID)
		}
	}
	if victim.NumVMs() != 0 {
		t.Fatal("dead PM still hosts VMs")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	if _, err := c.CrashPM(victim); err == nil {
		t.Fatal("crashing an already-off PM accepted")
	}
	if err := c.RecoverPM(victim); err != nil {
		t.Fatal(err)
	}
	if !victim.On() || victim.NumVMs() != 0 {
		t.Fatal("recovered PM should be powered and empty")
	}
	if err := c.RecoverPM(victim); err == nil {
		t.Fatal("recovering an already-on PM accepted")
	}
}

func TestCrashPMStrandsWithoutHeadroomAndRetries(t *testing.T) {
	c := genCluster(t, 2, 4, 30, 5, false, 1)

	// Consolidate everything onto PM 0 and dark the rest of the fleet, then
	// kill PM 0: every VM must strand into the arrival-retry path.
	for _, vm := range c.VMs {
		if vm.Host() != 0 {
			if err := c.Migrate(vm, c.PMs[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.SetPMOn(c.PMs[1], false); err != nil {
		t.Fatal(err)
	}
	rep, err := c.CrashPM(c.PMs[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stranded != len(c.VMs) || rep.Evacuated != 0 {
		t.Fatalf("evacuated %d / stranded %d, want 0 / %d", rep.Evacuated, rep.Stranded, len(c.VMs))
	}
	if c.FailedPlacements != int64(len(c.VMs)) {
		t.Fatalf("FailedPlacements = %d, want %d", c.FailedPlacements, len(c.VMs))
	}
	if c.PresentVMs() != 0 {
		t.Fatal("stranded VMs still present")
	}
	// Stranding keeps monitoring history: the VM survives, its host did not.
	for _, vm := range c.VMs {
		if c.vmCount[vm.ID] < 1 || c.vmFlags[vm.ID]&vmFlagSeeded == 0 {
			t.Fatalf("VM %d lost its monitoring history in the crash", vm.ID)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Power restored: the next round's arrival scan re-places every orphan.
	if err := c.SetPMOn(c.PMs[1], true); err != nil {
		t.Fatal(err)
	}
	c.AdvanceRound(1)
	if c.PresentVMs() != len(c.VMs) {
		t.Fatalf("re-placed %d of %d stranded VMs", c.PresentVMs(), len(c.VMs))
	}
	for _, vm := range c.VMs {
		if vm.Host() != 1 {
			t.Fatalf("VM %d landed on %d, only PM 1 is powered", vm.ID, vm.Host())
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceArrivalRespectsReservations pins the stuffing-fallback fix: an
// arrival must never consume capacity a target PM has promised to an
// in-flight migration.
func TestPlaceArrivalRespectsReservations(t *testing.T) {
	// One VM per PM fits by allocation; the third, arriving, must take the
	// stuffing path. Demands are constant, so the test controls every
	// admission check.
	c := constCluster(t, Config{
		PMs:    2,
		PMSpec: PMSpec{Name: "test", Capacity: Vec{1000, 1000}, NetBandwidthMBps: 100, PowerIdleW: 50, PowerMaxW: 100},
		VMSpec: VMSpec{Name: "test", Capacity: Vec{600, 600}},
	}, 3, 10, 0.5, 0.5, 0)
	if err := c.SetLifecycle(2, 1, -1); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	c.PlaceRandom(rng.Intn)
	if c.PresentVMs() != 2 {
		t.Fatalf("placed %d initial VMs, want 2", c.PresentVMs())
	}
	// Each PM hosts one 600-cap VM; a second never fits by allocation
	// (1200 > 1000), so VM 2's arrival must stuff by current demand
	// (300 absolute against 700 free). Reserving PM 0's remaining headroom
	// forces the arrival onto PM 1.
	host0 := c.VMs[0].Host()
	other := 1 - host0
	if err := c.Reserve(c.PMs[host0], 7, Vec{700, 700}); err != nil {
		t.Fatal(err)
	}
	if err := c.Reserve(c.PMs[other], 8, Vec{700, 700}); err != nil {
		t.Fatal(err)
	}
	// Both PMs fully reserved: the arrival must fail — the zero-reservation
	// stuffing fallback may not touch a PM with capacity spoken for.
	c.AdvanceRound(1)
	if c.VMs[2].Present() {
		t.Fatalf("arrival landed on PM %d despite full reservations", c.VMs[2].Host())
	}
	if c.FailedPlacements != 1 {
		t.Fatalf("FailedPlacements = %d, want 1", c.FailedPlacements)
	}
	// Release the far PM's reservation: the retry must land there and leave
	// the still-reserved PM untouched.
	if !c.ReleaseReservation(c.PMs[other], 8) {
		t.Fatal("release failed")
	}
	c.AdvanceRound(2)
	if !c.VMs[2].Present() {
		t.Fatal("arrival retry failed with a free PM available")
	}
	if got := c.VMs[2].Host(); got != other {
		t.Fatalf("arrival landed on %d, want unreserved PM %d", got, other)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
