package dc

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"
	"testing/quick"

	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

func appendRow(b []byte, vm, r int, cpu, mem float64) []byte {
	return append(b, []byte(fmt.Sprintf("%d,%d,%g,%g\n", vm, r, cpu, mem))...)
}

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

// mustSyntheticConst builds a workload where every VM demands the same
// fractions every round, via the CSV path to keep trace.Set opaque.
func mustSyntheticConst(t *testing.T, vms, rounds int, cpu, mem float64) *trace.Set {
	t.Helper()
	var b []byte
	b = append(b, []byte("vm,round,cpu,mem\n")...)
	for vm := 0; vm < vms; vm++ {
		for r := 0; r < rounds; r++ {
			b = appendRow(b, vm, r, cpu, mem)
		}
	}
	set, err := trace.LoadCSV(bytesReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func newTestCluster(t *testing.T, pms, vms int, cpu, mem float64) *Cluster {
	t.Helper()
	set := mustSyntheticConst(t, vms, 10, cpu, mem)
	c, err := New(Config{PMs: pms, Workload: set, LogMigrations: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	c.PlaceRandom(rng.Intn)
	return c
}

func TestNewValidation(t *testing.T) {
	set := mustSyntheticConst(t, 2, 2, 0.5, 0.5)
	if _, err := New(Config{PMs: 0, Workload: set}); err == nil {
		t.Fatal("expected error for zero PMs")
	}
	if _, err := New(Config{PMs: 2}); err == nil {
		t.Fatal("expected error for missing workload")
	}
}

func TestNewDefaults(t *testing.T) {
	set := mustSyntheticConst(t, 2, 2, 0.5, 0.5)
	c, err := New(Config{PMs: 2, Workload: set})
	if err != nil {
		t.Fatal(err)
	}
	if c.PMs[0].Spec.Name != HPProLiantML110G5.Name {
		t.Fatal("PM spec should default to the paper's server")
	}
	if c.VMs[0].Spec.Name != EC2Micro.Name {
		t.Fatal("VM spec should default to EC2 micro")
	}
	if c.RoundSeconds != 120 {
		t.Fatalf("RoundSeconds = %g", c.RoundSeconds)
	}
}

func TestPlaceRandomPlacesEveryVM(t *testing.T) {
	c := newTestCluster(t, 10, 30, 0.3, 0.3)
	for _, vm := range c.VMs {
		if vm.Host() < 0 {
			t.Fatalf("VM %d unplaced", vm.ID)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceRandomRespectsAllocationWhenFeasible(t *testing.T) {
	// 10 PMs x 5 nominal VM slots = 50 slots; 30 VMs easily fit.
	c := newTestCluster(t, 10, 30, 0.3, 0.3)
	for _, pm := range c.PMs {
		var alloc Vec
		for _, id := range pm.VMIDs() {
			alloc = alloc.Add(c.VMs[id].Spec.Capacity)
		}
		if !alloc.FitsWithin(pm.Spec.Capacity) {
			t.Fatalf("PM %d over-allocated: %v", pm.ID, alloc)
		}
	}
}

// TestAppendVMsSortedAndComplete pins the VM-list reader's contract: every
// hosted VM, ascending by ID, appended after whatever dst already holds, and
// a snapshot that survives migrating the listed VMs away.
func TestAppendVMsSortedAndComplete(t *testing.T) {
	c := newTestCluster(t, 2, 8, 0.1, 0.1)
	total := 0
	for _, pm := range c.PMs {
		var buf [4]*VM // smaller than some PM's list: append must spill
		vms := pm.AppendVMs(buf[:0])
		if len(vms) != pm.NumVMs() {
			t.Fatalf("PM %d: got %d VMs, hosts %d", pm.ID, len(vms), pm.NumVMs())
		}
		for i, vm := range vms {
			if vm.Host() != pm.ID {
				t.Fatalf("PM %d lists VM %d hosted on %d", pm.ID, vm.ID, vm.Host())
			}
			if i > 0 && vms[i-1].ID >= vm.ID {
				t.Fatalf("PM %d: VMs not in ascending ID order", pm.ID)
			}
		}
		total += len(vms)
	}
	if total != len(c.VMs) {
		t.Fatalf("lists cover %d of %d VMs", total, len(c.VMs))
	}
	src, dst := c.PMs[0], c.PMs[1]
	if src.NumVMs() == 0 {
		src, dst = dst, src
	}
	sentinel := c.VMs[0]
	vms := src.AppendVMs([]*VM{sentinel})
	want := append([]*VM(nil), vms...)
	for _, vm := range vms[1:] {
		if err := c.Migrate(vm, dst); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		if vms[i] != want[i] {
			t.Fatalf("entry %d changed while the listed VMs migrated away", i)
		}
	}
	if vms[0] != sentinel {
		t.Fatal("AppendVMs overwrote dst's existing element")
	}
}

func TestPlaceRandomDeterministic(t *testing.T) {
	hosts := func(seed uint64) []int {
		set := mustSyntheticConst(t, 20, 2, 0.2, 0.2)
		c, _ := New(Config{PMs: 8, Workload: set})
		rng := sim.NewRNG(seed)
		c.PlaceRandom(rng.Intn)
		out := make([]int, len(c.VMs))
		for i, vm := range c.VMs {
			out[i] = vm.Host()
		}
		return out
	}
	a, b := hosts(5), hosts(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("placement not deterministic for equal seeds")
		}
	}
}

func TestUtilizationAccounting(t *testing.T) {
	// 1 PM, 2 VMs at 50% CPU each: 2*0.5*500/2660 CPU utilisation.
	c := newTestCluster(t, 1, 2, 0.5, 0.25)
	u := c.CurUtil(c.PMs[0])
	wantCPU := 2 * 0.5 * 500 / 2660
	wantMem := 2 * 0.25 * 613 / 4096
	if math.Abs(u[CPU]-wantCPU) > 1e-9 || math.Abs(u[Mem]-wantMem) > 1e-9 {
		t.Fatalf("util %v, want (%g, %g)", u, wantCPU, wantMem)
	}
	// Average equals current for constant demand.
	if a := c.AvgUtil(c.PMs[0]); math.Abs(a[CPU]-wantCPU) > 1e-9 {
		t.Fatalf("avg util %v", a)
	}
}

func TestRunningAverage(t *testing.T) {
	// Demand 0.2 at round 0 (seeded), then rounds with varying demand;
	// verify the {c,v} running-average recurrence.
	var b []byte
	b = append(b, []byte("vm,round,cpu,mem\n")...)
	demands := []float64{0.2, 0.4, 0.6, 0.8}
	for r, d := range demands {
		b = appendRow(b, 0, r, d, d)
	}
	set, err := trace.LoadCSV(bytesReader(b))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{PMs: 1, Workload: set})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	c.PlaceRandom(rng.Intn)
	// After New, count=1 with avg = demand(0) = 0.2.
	vm := c.VMs[0]
	if math.Abs(vm.AvgDemand()[CPU]-0.2) > 1e-12 {
		t.Fatalf("initial avg %v", vm.AvgDemand())
	}
	c.AdvanceRound(1) // sees 0.4: avg = (0.2+0.4)/2 = 0.3
	if math.Abs(vm.AvgDemand()[CPU]-0.3) > 1e-12 {
		t.Fatalf("avg after r1 = %v", vm.AvgDemand())
	}
	c.AdvanceRound(2) // sees 0.6: avg = (0.2+0.4+0.6)/3 = 0.4
	if math.Abs(vm.AvgDemand()[CPU]-0.4) > 1e-12 {
		t.Fatalf("avg after r2 = %v", vm.AvgDemand())
	}
	if math.Abs(vm.CurDemand()[CPU]-0.6) > 1e-12 {
		t.Fatalf("cur after r2 = %v", vm.CurDemand())
	}
}

func TestOverloadDetection(t *testing.T) {
	// 6 VMs at 100% CPU on one PM: 6*500 = 3000 > 2660.
	c := newTestCluster(t, 1, 6, 1.0, 0.2)
	if !c.Overloaded(c.PMs[0]) {
		t.Fatalf("PM should be overloaded: util %v", c.CurUtil(c.PMs[0]))
	}
	if c.OverloadedPMs() != 1 {
		t.Fatal("OverloadedPMs should be 1")
	}
	c2 := newTestCluster(t, 2, 2, 0.5, 0.2)
	for _, pm := range c2.PMs {
		if c2.Overloaded(pm) {
			t.Fatal("lightly loaded PM flagged overloaded")
		}
	}
}

func TestFreeCurAndFitsCur(t *testing.T) {
	c := newTestCluster(t, 2, 1, 0.5, 0.5)
	vm := c.VMs[0]
	src := c.PMs[vm.Host()]
	dst := c.PMs[1-vm.Host()]
	if !c.FitsCur(vm, dst) {
		t.Fatal("VM should fit empty PM")
	}
	free := c.FreeCur(src)
	if free[CPU] >= src.Spec.Capacity[CPU] {
		t.Fatal("free capacity should be reduced by the hosted VM")
	}
}

func TestMigrate(t *testing.T) {
	c := newTestCluster(t, 2, 1, 0.5, 0.5)
	vm := c.VMs[0]
	src := c.PMs[vm.Host()]
	dst := c.PMs[1-vm.Host()]
	if err := c.Migrate(vm, dst); err != nil {
		t.Fatal(err)
	}
	if vm.Host() != dst.ID || src.NumVMs() != 0 || dst.NumVMs() != 1 {
		t.Fatal("migration did not move the VM")
	}
	if vm.MigrationCount() != 1 || c.Migrations != 1 {
		t.Fatal("migration counters not updated")
	}
	if c.MigrationEnergyJ <= 0 {
		t.Fatal("migration energy not accounted")
	}
	if len(c.MigrationLog()) != 1 {
		t.Fatal("migration log not appended")
	}
	m := c.MigrationLog()[0]
	// tau = memMB / bandwidth = 0.5*613/1250.
	wantTau := 0.5 * 613 / 1250
	if math.Abs(m.Seconds-wantTau) > 1e-9 {
		t.Fatalf("tau = %g, want %g", m.Seconds, wantTau)
	}
	// Eq. 3 with 10% CPU overhead on both homogeneous endpoints.
	wantE := 2 * (135 - 93) * 0.10 * wantTau
	if math.Abs(m.EnergyJ-wantE) > 1e-9 {
		t.Fatalf("energy = %g, want %g", m.EnergyJ, wantE)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateErrors(t *testing.T) {
	c := newTestCluster(t, 3, 1, 0.5, 0.5)
	vm := c.VMs[0]
	cur := c.PMs[vm.Host()]
	if err := c.Migrate(vm, cur); err == nil {
		t.Fatal("expected error migrating to same PM")
	}
	var other *PM
	for _, pm := range c.PMs {
		if pm.ID != vm.Host() && pm.NumVMs() == 0 {
			other = pm
		}
	}
	if err := c.SetPMOn(other, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(vm, other); err == nil {
		t.Fatal("expected error migrating to powered-off PM")
	}
}

func TestMigrateUpdatesSLALM(t *testing.T) {
	c := newTestCluster(t, 2, 1, 0.8, 0.5)
	vm := c.VMs[0]
	c.AdvanceRound(1) // accrue requested CPU
	before := vm.DegradationRatio()
	if err := c.Migrate(vm, c.PMs[1-vm.Host()]); err != nil {
		t.Fatal(err)
	}
	if vm.DegradationRatio() <= before {
		t.Fatal("migration should increase degradation ratio")
	}
}

func TestSetPMOnGuard(t *testing.T) {
	c := newTestCluster(t, 1, 1, 0.5, 0.5)
	if err := c.SetPMOn(c.PMs[0], false); err == nil {
		t.Fatal("expected error switching off a PM hosting VMs")
	}
	c2 := newTestCluster(t, 2, 1, 0.5, 0.5)
	var empty *PM
	for _, pm := range c2.PMs {
		if pm.NumVMs() == 0 {
			empty = pm
		}
	}
	if err := c2.SetPMOn(empty, false); err != nil {
		t.Fatal(err)
	}
	if c2.ActivePMs() != 1 {
		t.Fatalf("ActivePMs = %d", c2.ActivePMs())
	}
}

func TestAdvanceRoundAccounting(t *testing.T) {
	// Non-overloaded PM accrues active time and energy, no overload time.
	c := newTestCluster(t, 1, 2, 0.5, 0.2)
	c.AdvanceRound(1)
	pm := c.PMs[0]
	if pm.ActiveSeconds() != 120 {
		t.Fatalf("active seconds %g", pm.ActiveSeconds())
	}
	if pm.OverloadSeconds() != 0 {
		t.Fatal("no overload expected")
	}
	if pm.EnergyJ() <= 93*120 {
		t.Fatalf("energy %g should exceed idle floor", pm.EnergyJ())
	}
	// Over a constant-demand window every accumulator is linear in the
	// number of rounds and the running average stays at the demand.
	perRound := pm.EnergyJ()
	for r := 2; r <= 9; r++ {
		c.AdvanceRound(r)
	}
	if pm.ActiveSeconds() != 9*120 || c.Round() != 9 {
		t.Fatalf("after 9 rounds: active seconds %g, round %d", pm.ActiveSeconds(), c.Round())
	}
	if math.Abs(pm.EnergyJ()-9*perRound) > 1e-6 {
		t.Fatalf("energy %g, want 9 x %g", pm.EnergyJ(), perRound)
	}
	if c.vmCount[0] != 10 || math.Abs(c.vmRequested[0]-9*0.5*c.vmCap[0][CPU]*120) > 1e-6 {
		t.Fatalf("vm 0: %d observations, %g MIPS·s requested", c.vmCount[0], c.vmRequested[0])
	}
	if a := c.VMs[0].AvgDemand(); math.Abs(a[CPU]-0.5) > 1e-12 || math.Abs(a[Mem]-0.2) > 1e-12 {
		t.Fatalf("running average drifted off constant demand: %v", a)
	}
	// Overloaded PM accrues overload time; energy capped at max power.
	c2 := newTestCluster(t, 1, 6, 1.0, 0.2)
	c2.AdvanceRound(1)
	pm2 := c2.PMs[0]
	if pm2.OverloadSeconds() != 120 {
		t.Fatalf("overload seconds %g", pm2.OverloadSeconds())
	}
	if pm2.EnergyJ() > 135*120+1e-9 {
		t.Fatalf("energy %g exceeds max-power bound", pm2.EnergyJ())
	}
}

func TestCachedSumsMatchRecomputation(t *testing.T) {
	// Property: after arbitrary migrations and round advances, the cached
	// CurUtil matches a from-scratch recomputation.
	set, err := trace.Generate(trace.DefaultGenConfig(30, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{PMs: 8, Workload: set})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(9)
	c.PlaceRandom(rng.Intn)

	f := func(steps []uint16) bool {
		for i, s := range steps {
			if i%3 == 0 {
				c.AdvanceRound(int(s) % 20)
				continue
			}
			vm := c.VMs[int(s)%len(c.VMs)]
			dst := c.PMs[int(s/7)%len(c.PMs)]
			if dst.ID != vm.Host() {
				_ = c.Migrate(vm, dst)
			}
		}
		for _, pm := range c.PMs {
			var sum Vec
			for _, id := range pm.VMIDs() {
				sum = sum.Add(c.VMs[id].CurAbs())
			}
			got := c.CurUtil(pm)
			want := sum.Div(pm.Spec.Capacity)
			for r := 0; r < NumResources; r++ {
				if math.Abs(got[r]-want[r]) > 1e-6 {
					return false
				}
			}
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	c := newTestCluster(t, 2, 2, 0.5, 0.5)
	c.vmHost[0] = 1 - c.vmHost[0] // corrupt
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("expected invariant violation")
	}
}

func TestDegradationRatioZeroWhenNoRequest(t *testing.T) {
	c := newTestCluster(t, 2, 1, 0.0, 0.5)
	if c.VMs[0].DegradationRatio() != 0 {
		t.Fatal("zero requested CPU should yield zero ratio")
	}
}

// TestAdvanceRoundWorkerCountBitEquivalence drives two identically-seeded
// clusters through the same rounds, one sequential and one with 8 explicit
// workers, and requires every float accumulator to match bit-for-bit — the
// determinism contract of the fork-join AdvanceRound.
func TestAdvanceRoundWorkerCountBitEquivalence(t *testing.T) {
	build := func(workers int) *Cluster {
		set, err := trace.Generate(trace.DefaultGenConfig(40, 120, 3))
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{PMs: 40, Workload: set})
		if err != nil {
			t.Fatal(err)
		}
		c.Workers = workers
		rng := sim.NewRNG(11)
		c.PlaceRandom(rng.Intn)
		return c
	}
	a, b := build(1), build(8)
	bits := math.Float64bits
	for r := 0; r < 60; r++ {
		a.AdvanceRound(r)
		b.AdvanceRound(r)
	}
	if got, want := b.ActivePMs(), a.ActivePMs(); got != want {
		t.Fatalf("ActivePMs: %d vs %d", got, want)
	}
	if got, want := b.OverloadedPMs(), a.OverloadedPMs(); got != want {
		t.Fatalf("OverloadedPMs: %d vs %d", got, want)
	}
	for i := range a.PMs {
		for res := 0; res < NumResources; res++ {
			if bits(a.pmCurSum[i][res]) != bits(b.pmCurSum[i][res]) {
				t.Fatalf("PM %d curSum[%d] diverges: %x vs %x", i, res, bits(a.pmCurSum[i][res]), bits(b.pmCurSum[i][res]))
			}
			if bits(a.pmAvgSum[i][res]) != bits(b.pmAvgSum[i][res]) {
				t.Fatalf("PM %d avgSum[%d] diverges", i, res)
			}
		}
		if bits(a.pmEnergyJ[i]) != bits(b.pmEnergyJ[i]) {
			t.Fatalf("PM %d energyJ diverges: %x vs %x", i, bits(a.pmEnergyJ[i]), bits(b.pmEnergyJ[i]))
		}
		if a.pmActiveSec[i] != b.pmActiveSec[i] || a.pmOverloadSec[i] != b.pmOverloadSec[i] {
			t.Fatalf("PM %d time accounting diverges", i)
		}
	}
	for i := range a.VMs {
		for res := 0; res < NumResources; res++ {
			if bits(a.vmAvg[i][res]) != bits(b.vmAvg[i][res]) {
				t.Fatalf("VM %d avg[%d] diverges", i, res)
			}
		}
		if bits(a.vmRequested[i]) != bits(b.vmRequested[i]) {
			t.Fatalf("VM %d requestedCPU diverges", i)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckInvariantsParallelDetectsCorruption(t *testing.T) {
	// The chunked scan must still catch a violation planted anywhere,
	// including in the last chunk of a cluster spanning several chunks.
	set := mustSyntheticConst(t, 10, 2, 0.1, 0.1)
	c, err := New(Config{PMs: 3 * pmChunk, Workload: set})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5)
	c.PlaceRandom(rng.Intn)
	c.Workers = 8
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	vm := c.VMs[0]
	c.hostedRemove(vm.Host(), int32(vm.ID))
	c.hostedInsert(len(c.PMs)-1, int32(vm.ID))
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("corruption in last chunk went undetected")
	}
}
