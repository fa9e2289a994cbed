package dc

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

// constCluster builds a cluster under cfg whose vms VMs demand the fractions
// cpu and mem of their capacity in each of rounds rounds (the workload goes
// through the CSV path, which keeps trace.Set opaque), placed at random from
// place, or left unplaced when place is 0.
func constCluster(tb testing.TB, cfg Config, vms, rounds int, cpu, mem float64, place uint64) *Cluster {
	tb.Helper()
	var b strings.Builder
	b.WriteString("vm,round,cpu,mem\n")
	for vm := 0; vm < vms; vm++ {
		for r := 0; r < rounds; r++ {
			fmt.Fprintf(&b, "%d,%d,%g,%g\n", vm, r, cpu, mem)
		}
	}
	set, err := trace.LoadCSV(strings.NewReader(b.String()))
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Workload = set
	c, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if place != 0 {
		c.PlaceRandom(sim.NewRNG(place).Intn)
	}
	return c
}

// genCluster builds a cluster of pms machines over the vms VMs of a
// rounds-round trace generated from seed, synthesised on demand when
// streaming is set, placed at random from place, or left unplaced when place
// is 0.
func genCluster(tb testing.TB, pms, vms, rounds int, seed uint64, streaming bool, place uint64) *Cluster {
	tb.Helper()
	gen := trace.Generate
	if streaming {
		gen = trace.GenerateStreaming
	}
	set, err := gen(trace.DefaultGenConfig(vms, rounds, seed))
	if err != nil {
		tb.Fatal(err)
	}
	c, err := New(Config{PMs: pms, Workload: set})
	if err != nil {
		tb.Fatal(err)
	}
	if place != 0 {
		c.PlaceRandom(sim.NewRNG(place).Intn)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	set := constCluster(t, Config{PMs: 2}, 2, 2, 0.5, 0.5, 0).Workload()
	if _, err := New(Config{PMs: 0, Workload: set}); err == nil {
		t.Fatal("expected error for zero PMs")
	}
	if _, err := New(Config{PMs: 2}); err == nil {
		t.Fatal("expected error for missing workload")
	}
}

func TestNewDefaults(t *testing.T) {
	c := constCluster(t, Config{PMs: 2}, 2, 2, 0.5, 0.5, 0)
	if c.PMs[0].Spec.Name != HPProLiantML110G5.Name {
		t.Fatal("PM spec should default to the paper's server")
	}
	if c.VMs[0].Spec.Name != EC2Micro.Name {
		t.Fatal("VM spec should default to EC2 micro")
	}
}

func TestPlaceRandomPlacesEveryVM(t *testing.T) {
	c := constCluster(t, Config{PMs: 10, LogMigrations: true}, 30, 10, 0.3, 0.3, 7)
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
	c := constCluster(t, Config{PMs: 10, LogMigrations: true}, 30, 10, 0.3, 0.3, 7)
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
	c := constCluster(t, Config{PMs: 2, LogMigrations: true}, 8, 10, 0.1, 0.1, 7)
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
		c := constCluster(t, Config{PMs: 8}, 20, 2, 0.2, 0.2, seed)
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
	c := constCluster(t, Config{PMs: 1, LogMigrations: true}, 2, 10, 0.5, 0.25, 7)
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
	var b strings.Builder
	b.WriteString("vm,round,cpu,mem\n")
	for r, d := range []float64{0.2, 0.4, 0.6, 0.8} {
		fmt.Fprintf(&b, "0,%d,%g,%g\n", r, d, d)
	}
	set, err := trace.LoadCSV(strings.NewReader(b.String()))
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
	c := constCluster(t, Config{PMs: 1, LogMigrations: true}, 6, 10, 1.0, 0.2, 7)
	if !c.Overloaded(c.PMs[0]) {
		t.Fatalf("PM should be overloaded: util %v", c.CurUtil(c.PMs[0]))
	}
	if c.OverloadedPMs() != 1 {
		t.Fatal("OverloadedPMs should be 1")
	}
	c2 := constCluster(t, Config{PMs: 2, LogMigrations: true}, 2, 10, 0.5, 0.2, 7)
	for _, pm := range c2.PMs {
		if c2.Overloaded(pm) {
			t.Fatal("lightly loaded PM flagged overloaded")
		}
	}
}

func TestFreeCurAndFitsCur(t *testing.T) {
	c := constCluster(t, Config{PMs: 2, LogMigrations: true}, 1, 10, 0.5, 0.5, 7)
	vm := c.VMs[0]
	src := c.PMs[vm.Host()]
	dst := c.PMs[1-vm.Host()]
	if !vm.CurAbs().FitsWithin(c.FreeCur(dst)) {
		t.Fatal("VM should fit empty PM")
	}
	free := c.FreeCur(src)
	if free[CPU] >= src.Spec.Capacity[CPU] {
		t.Fatal("free capacity should be reduced by the hosted VM")
	}
}

func TestMigrate(t *testing.T) {
	c := constCluster(t, Config{PMs: 2, LogMigrations: true}, 1, 10, 0.5, 0.5, 7)
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
	c := constCluster(t, Config{PMs: 3, LogMigrations: true}, 1, 10, 0.5, 0.5, 7)
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
	c := constCluster(t, Config{PMs: 2, LogMigrations: true}, 1, 10, 0.8, 0.5, 7)
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
	c := constCluster(t, Config{PMs: 1, LogMigrations: true}, 1, 10, 0.5, 0.5, 7)
	if err := c.SetPMOn(c.PMs[0], false); err == nil {
		t.Fatal("expected error switching off a PM hosting VMs")
	}
	c2 := constCluster(t, Config{PMs: 2, LogMigrations: true}, 1, 10, 0.5, 0.5, 7)
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
	c := constCluster(t, Config{PMs: 1, LogMigrations: true}, 2, 10, 0.5, 0.2, 7)
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
	if c.vmCount[0] != 10 || math.Abs(c.vmRequested[0]-9*0.5*EC2Micro.Capacity[CPU]*120) > 1e-6 {
		t.Fatalf("vm 0: %d observations, %g MIPS·s requested", c.vmCount[0], c.vmRequested[0])
	}
	if a := c.VMs[0].AvgDemand(); math.Abs(a[CPU]-0.5) > 1e-12 || math.Abs(a[Mem]-0.2) > 1e-12 {
		t.Fatalf("running average drifted off constant demand: %v", a)
	}
	// Overloaded PM accrues overload time; energy capped at max power.
	c2 := constCluster(t, Config{PMs: 1, LogMigrations: true}, 6, 10, 1.0, 0.2, 7)
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
	c := genCluster(t, 8, 30, 20, 3, false, 9)

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
	c := constCluster(t, Config{PMs: 2, LogMigrations: true}, 2, 10, 0.5, 0.5, 7)
	c.vmHost[0] = 1 - c.vmHost[0] // corrupt
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("expected invariant violation")
	}

	// A violation planted on the last PM of a larger cluster is caught too.
	c = constCluster(t, Config{PMs: 192}, 10, 2, 0.1, 0.1, 5)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	vm := c.VMs[0]
	c.hostedRemove(vm.Host(), int32(vm.ID))
	c.hostedInsert(len(c.PMs)-1, int32(vm.ID))
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("corruption on the last PM went undetected")
	}
}

func TestDegradationRatioZeroWhenNoRequest(t *testing.T) {
	c := constCluster(t, Config{PMs: 2, LogMigrations: true}, 1, 10, 0.0, 0.5, 7)
	if c.VMs[0].DegradationRatio() != 0 {
		t.Fatal("zero requested CPU should yield zero ratio")
	}
}

// stateDump renders every piece of the cluster's mutable per-VM and per-PM
// state with exact bit-level float encoding, so two clusters compare equal
// only when they are the same bit for bit.
func stateDump(c *Cluster) string {
	var b strings.Builder
	bits := math.Float64bits
	vec := func(v Vec) string { return fmt.Sprintf("%016x/%016x", bits(v[CPU]), bits(v[Mem])) }
	for id := range c.VMs {
		fmt.Fprintf(&b, "vm%d host=%d cur=%s avg=%s n=%d migs=%d deg=%016x req=%016x flags=%d\n",
			id, c.vmHost[id], vec(c.vmCur[id]), vec(c.vmAvg[id]), c.vmCount[id], c.vmMigs[id],
			bits(c.vmDegraded[id]), bits(c.vmRequested[id]), c.vmFlags[id])
	}
	for p := range c.PMs {
		fmt.Fprintf(&b, "pm%d on=%v cur=%s avg=%s alloc=%s act=%016x over=%016x e=%016x vms=%v\n",
			p, c.pmOn(p), vec(c.pmCurSum[p]), vec(c.pmAvgSum[p]), vec(c.pmAllocSum[p]),
			bits(c.pmActiveSec[p]), bits(c.pmOverloadSec[p]), bits(c.pmEnergyJ[p]), c.pmVMs[p])
	}
	fmt.Fprintf(&b, "active=%d over=%d failed=%d\n", c.ActivePMs(), c.OverloadedPMs(), c.FailedPlacements)
	return b.String()
}

// requireSameState fails the test at the first line where two clusters'
// state dumps differ.
func requireSameState(t *testing.T, what string, a, b *Cluster) {
	t.Helper()
	la, lb := strings.Split(stateDump(a), "\n"), strings.Split(stateDump(b), "\n")
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("%s: clusters diverge:\n  %s\n  %s", what, la[i], lb[i])
		}
	}
}

// gatherAdvanceRound is AdvanceRound as it was before the scatter: a VM pass
// refreshes demand, then a PM pass re-sums each PM's demand by gathering its
// hosted VMs' cur/avg/cap in hosted-list order and does the energy
// accounting. It is the oracle of TestAdvanceRoundScatterBitEquivalence.
func gatherAdvanceRound(c *Cluster, r int) {
	c.round = r
	c.stepLifecycle(r)
	for id := range c.VMs {
		if c.vmHost[id] < 0 {
			continue
		}
		s := c.sample(id, r)
		cur := Vec{s.CPU, s.Mem}
		c.vmCur[id] = cur
		n := float64(c.vmCount[id])
		avg := c.vmAvg[id]
		for res := 0; res < NumResources; res++ {
			avg[res] = (n*avg[res] + cur[res]) / (n + 1)
		}
		c.vmAvg[id] = avg
		c.vmCount[id]++
		c.vmRequested[id] += cur[CPU] * EC2Micro.Capacity[CPU] * RoundSeconds
	}
	for p := range c.PMs {
		var curSum, avgSum Vec
		for _, id := range c.pmVMs[p] {
			cur, avg, cp := c.vmCur[id], c.vmAvg[id], EC2Micro.Capacity
			curSum = curSum.Add(Vec{cur[CPU] * cp[CPU], cur[Mem] * cp[Mem]})
			avgSum = avgSum.Add(Vec{avg[CPU] * cp[CPU], avg[Mem] * cp[Mem]})
		}
		c.pmCurSum[p] = curSum
		c.pmAvgSum[p] = avgSum
		if !c.pmOn(p) {
			continue
		}
		pm := c.PMs[p]
		c.pmActiveSec[p] += RoundSeconds
		cpuU := curSum.Div(pm.Spec.Capacity)[CPU]
		if cpuU >= 1 {
			c.pmOverloadSec[p] += RoundSeconds
			cpuU = 1
		}
		c.pmEnergyJ[p] += (pm.Spec.PowerIdleW + (pm.Spec.PowerMaxW-pm.Spec.PowerIdleW)*cpuU) * RoundSeconds
	}
}

// TestAdvanceRoundScatterBitEquivalence drives twin clusters through the same
// 60 rounds, one advanced by AdvanceRound's scatter and one by the gather it
// replaced, and requires every float accumulator to match bit for bit after
// every round. Between rounds both receive the same random migrations and
// power-offs of emptied PMs; VMs arrive late and depart; PMs crash
// (evacuating their VMs) and recover, and once the whole population is
// stranded by a crash and re-placed through the arrival path. Every other
// round is served from the look-ahead buffer.
func TestAdvanceRoundScatterBitEquivalence(t *testing.T) {
	const pms, ratio, rounds, traceRounds = 40, 4, 60, 25
	build := func() *Cluster {
		c := genCluster(t, pms, pms*ratio, traceRounds, 3, true, 0)
		for id := 0; id < 30; id++ {
			arrive, depart := 1+id, -1
			if id >= 20 {
				arrive = 0
			}
			if id%3 == 0 {
				depart = arrive + 5 + id%7
			}
			if err := c.SetLifecycle(id, arrive, depart); err != nil {
				t.Fatal(err)
			}
		}
		c.PlaceRandom(sim.NewRNG(11).Intn)
		return c
	}
	scatter, gather := build(), build()
	both := []*Cluster{scatter, gather}
	ops := sim.NewRNG(5) // one operation stream, applied to both clusters
	var crashed []int
	evacuated, stranded := 0, 0
	for r := 0; r < rounds; r++ {
		for k := 0; k < 12; k++ {
			vm, dst := ops.Intn(pms*ratio), ops.Intn(pms)
			for _, c := range both {
				if c.VMs[vm].Present() && c.VMs[vm].Host() != dst && c.PMs[dst].On() {
					if err := c.Migrate(c.VMs[vm], c.PMs[dst]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if p := ops.Intn(pms); scatter.PMs[p].On() && scatter.PMs[p].NumVMs() == 0 && ops.Intn(2) == 0 {
			for _, c := range both {
				if err := c.SetPMOn(c.PMs[p], false); err != nil {
					t.Fatal(err)
				}
			}
		}
		switch {
		case r == 30:
			// Pile every VM onto PM 0, power the rest down and crash it: no
			// PM is left to evacuate to, so the whole population is stranded
			// and comes back through the arrival path once PM 0 recovers;
			// the rest power up again over the following rounds.
			for _, c := range both {
				for _, vm := range c.VMs {
					if vm.Present() && vm.Host() != 0 {
						if err := c.Migrate(vm, c.PMs[0]); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, pm := range c.PMs[1:] {
					if pm.On() {
						if err := c.SetPMOn(pm, false); err != nil {
							t.Fatal(err)
						}
					}
				}
				rep, err := c.CrashPM(c.PMs[0])
				if err != nil {
					t.Fatal(err)
				}
				stranded += rep.Stranded
				if err := c.RecoverPM(c.PMs[0]); err != nil {
					t.Fatal(err)
				}
			}
		case r > 30 && r < 40:
			for _, c := range both {
				for p := 4 * (r - 31); p < 4*(r-30); p++ {
					if !c.PMs[p].On() {
						if err := c.SetPMOn(c.PMs[p], true); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		case r%5 == 2 && len(crashed) == 0:
			if p := ops.Intn(pms); scatter.PMs[p].On() {
				for _, c := range both {
					rep, err := c.CrashPM(c.PMs[p])
					if err != nil {
						t.Fatal(err)
					}
					evacuated += rep.Evacuated
				}
				crashed = append(crashed, p)
			}
		case r%5 == 4:
			for _, p := range crashed {
				for _, c := range both {
					if err := c.RecoverPM(c.PMs[p]); err != nil {
						t.Fatal(err)
					}
				}
			}
			crashed = crashed[:0]
		}
		for _, c := range both {
			if r%2 == 1 {
				c.Prefetch(r)
			}
		}
		scatter.AdvanceRound(r)
		gatherAdvanceRound(gather, r)
		requireSameState(t, fmt.Sprintf("round %d, scatter vs gather", r), scatter, gather)
		if err := scatter.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if scatter.Migrations == 0 || evacuated == 0 || stranded == 0 {
		t.Fatalf("setup: %d migrations, %d evacuated, %d stranded",
			scatter.Migrations, evacuated, stranded)
	}
}

// TestAdvanceRoundPrefetchBitEquivalence: AdvanceRound takes a round's samples
// from the look-ahead buffer when Prefetch filled it for that round and
// synthesises them otherwise — the same cluster either way, bit for bit,
// including the arrival read in stepLifecycle (late arrivals, a departure
// and crash-stranded VMs retrying placement are all in the run) and a run
// longer than the trace (the stream wraps and seeks backward). A buffer
// holding any other round is ignored.
func TestAdvanceRoundPrefetchBitEquivalence(t *testing.T) {
	const rounds, traceRounds = 30, 20
	build := func() *Cluster {
		c := genCluster(t, 6, 6*3, traceRounds, 3, true, 0)
		if err := c.SetLifecycle(2, 4, 9); err != nil {
			t.Fatal(err)
		}
		if err := c.SetLifecycle(5, 6, -1); err != nil {
			t.Fatal(err)
		}
		c.PlaceRandom(sim.NewRNG(11).Intn)
		return c
	}
	plain, buffered, stale := build(), build(), build()
	for r := 0; r < rounds; r++ {
		if r == 13 {
			// Pile every VM onto PM 0, power the rest down and crash it: with
			// no PM left to evacuate to, every VM is stranded and comes back
			// through the arrival path once PM 0 recovers.
			for _, c := range []*Cluster{plain, buffered, stale} {
				for _, vm := range c.VMs {
					if vm.Present() && vm.Host() != 0 {
						if err := c.Migrate(vm, c.PMs[0]); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, pm := range c.PMs[1:] {
					if err := c.SetPMOn(pm, false); err != nil {
						t.Fatal(err)
					}
				}
				if rep, err := c.CrashPM(c.PMs[0]); err != nil || rep.Stranded == 0 {
					t.Fatalf("setup: crash stranded %d VMs, err %v", rep.Stranded, err)
				}
				if err := c.RecoverPM(c.PMs[0]); err != nil {
					t.Fatal(err)
				}
			}
		}
		plain.AdvanceRound(r)
		if r%3 != 0 { // hits and misses: VM 2 arrives on a hit, VM 5 on a miss
			buffered.Prefetch(r)
		}
		buffered.AdvanceRound(r)
		stale.Prefetch(r + 2)
		stale.AdvanceRound(r)
		requireSameState(t, fmt.Sprintf("round %d, buffered", r), plain, buffered)
		requireSameState(t, fmt.Sprintf("round %d, stale buffer", r), plain, stale)
		if err := buffered.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if plain.VMs[2].Present() || !plain.VMs[2].Departed() || !plain.VMs[5].Present() {
		t.Fatal("setup: the lifecycle did not run")
	}
	if plain.PresentVMs() != len(plain.VMs)-1 {
		t.Fatalf("setup: %d of %d VMs present after the stranded ones retried", plain.PresentVMs(), len(plain.VMs))
	}
}
