package metrics

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

func clusterWithDemand(t *testing.T, pms, vms int, cpu float64) *dc.Cluster {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("vm,round,cpu,mem\n")
	for vm := 0; vm < vms; vm++ {
		for r := 0; r < 8; r++ {
			fmt.Fprintf(&b, "%d,%d,%g,0.2\n", vm, r, cpu)
		}
	}
	set, err := trace.LoadCSV(&b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dc.New(dc.Config{PMs: pms, Workload: set})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5)
	c.PlaceRandom(rng.Intn)
	return c
}

func TestSLAVOCountsOverloadTime(t *testing.T) {
	// Overloaded single PM: SLAVO = 1 (always at 100%).
	c := clusterWithDemand(t, 1, 6, 1.0)
	for _, vm := range c.VMs {
		if vm.Host() != 0 {
			_ = c.Migrate(vm, c.PMs[0])
		}
	}
	c.AdvanceRound(1)
	c.AdvanceRound(2)
	if got := SLAVO(c); math.Abs(got-1) > 1e-12 {
		t.Fatalf("SLAVO = %g, want 1", got)
	}
	// Lightly loaded cluster: SLAVO = 0.
	c2 := clusterWithDemand(t, 2, 4, 0.2)
	c2.AdvanceRound(1)
	if SLAVO(c2) != 0 {
		t.Fatal("SLAVO should be 0 without overload")
	}
}

func TestSLALMAndSLAV(t *testing.T) {
	c := clusterWithDemand(t, 2, 2, 0.5)
	c.AdvanceRound(1)
	if SLALM(c) != 0 {
		t.Fatal("SLALM should be 0 before any migration")
	}
	vm := c.VMs[0]
	_ = c.Migrate(vm, c.PMs[1-vm.Host()])
	if SLALM(c) <= 0 {
		t.Fatal("SLALM should be positive after migration")
	}
	// SLAV = SLAVO * SLALM.
	if got := SLAV(c); math.Abs(got-SLAVO(c)*SLALM(c)) > 1e-15 {
		t.Fatalf("SLAV = %g", got)
	}
}

func TestSLAVOEmptyCluster(t *testing.T) {
	// No PM ever active (fresh cluster, no rounds): no division by zero.
	c := clusterWithDemand(t, 2, 2, 0.5)
	if got := SLAVO(c); got != 0 {
		t.Fatalf("SLAVO = %g on fresh cluster", got)
	}
}

func TestCollectorSeries(t *testing.T) {
	c := clusterWithDemand(t, 3, 6, 0.3)
	e := sim.NewEngine(3, 1)
	if _, err := policy.Bind(e, c); err != nil {
		t.Fatal(err)
	}
	series := Attach(e, c, 0)
	e.RunRounds(5)
	series.Finalize(c)

	if len(series.Samples) != 5 {
		t.Fatalf("%d samples, want 5", len(series.Samples))
	}
	for i, s := range series.Samples {
		if s.Round != i {
			t.Fatalf("sample %d has round %d", i, s.Round)
		}
		if s.ActivePMs != 3 {
			t.Fatalf("active = %d", s.ActivePMs)
		}
	}
	if last, ok := series.Last(); !ok || last.Round != 4 {
		t.Fatal("Last broken")
	}
}

func TestCollectorFromRound(t *testing.T) {
	c := clusterWithDemand(t, 2, 2, 0.3)
	e := sim.NewEngine(2, 1)
	if _, err := policy.Bind(e, c); err != nil {
		t.Fatal(err)
	}
	series := Attach(e, c, 3)
	e.RunRounds(6)
	if len(series.Samples) != 3 {
		t.Fatalf("%d samples, want 3 (rounds 3-5)", len(series.Samples))
	}
	if series.Samples[0].Round != 3 {
		t.Fatalf("first sample at round %d", series.Samples[0].Round)
	}
}

func TestSeriesExtractors(t *testing.T) {
	s := &Series{Samples: []Snapshot{
		{Round: 0, ActivePMs: 10, OverloadedPMs: 2, Migrations: 5, MigrationEnergyJ: 50},
		{Round: 1, ActivePMs: 8, OverloadedPMs: 0, Migrations: 9, MigrationEnergyJ: 90},
		{Round: 2, ActivePMs: 0, OverloadedPMs: 0, Migrations: 9, MigrationEnergyJ: 90},
	}}
	over := s.OverloadedPerRound()
	if over[0] != 2 || over[1] != 0 {
		t.Fatalf("overloaded %v", over)
	}
	per := s.MigrationsPerRound()
	if per[0] != 5 || per[1] != 4 || per[2] != 0 {
		t.Fatalf("per-round %v", per)
	}
	cum := s.CumulativeMigrations()
	if cum[0] != 5 || cum[2] != 9 {
		t.Fatalf("cumulative %v", cum)
	}
	frac := s.FractionOverloaded()
	if math.Abs(frac[0]-0.2) > 1e-12 || frac[1] != 0 || frac[2] != 0 {
		t.Fatalf("fraction %v (zero active must not divide by zero)", frac)
	}
}

func TestLastEmpty(t *testing.T) {
	s := &Series{}
	if _, ok := s.Last(); ok {
		t.Fatal("Last on empty series should report !ok")
	}
}

func TestTotalEnergyAndESV(t *testing.T) {
	c := clusterWithDemand(t, 2, 4, 0.5)
	if TotalEnergyKWh(c) != 0 {
		t.Fatal("fresh cluster should have zero energy")
	}
	c.AdvanceRound(1)
	kwh := TotalEnergyKWh(c)
	if kwh <= 0 {
		t.Fatalf("energy %g after a round", kwh)
	}
	// Two active G5 machines for 120 s: between 2*93*120 and 2*135*120 J.
	lo, hi := 2*93.0*120/3.6e6, 2*135.0*120/3.6e6
	if kwh < lo || kwh > hi {
		t.Fatalf("energy %g outside [%g, %g] kWh", kwh, lo, hi)
	}
	if got := ESV(c); math.Abs(got-kwh*SLAV(c)) > 1e-18 {
		t.Fatalf("ESV = %g, want energy*SLAV", got)
	}
}

// pingPongMigrator moves VM 0 to the other PM every round (2-PM cluster).
type pingPongMigrator struct{ c *dc.Cluster }

func (p *pingPongMigrator) Name() string                         { return "test-migrator" }
func (p *pingPongMigrator) Setup(e *sim.Engine, n *sim.Node) any { return struct{}{} }
func (p *pingPongMigrator) Round(e *sim.Engine, n *sim.Node, round int) {
	if n.ID != 0 {
		return
	}
	vm := p.c.VMs[0]
	dst := p.c.PMs[1-vm.Host()]
	if err := p.c.Migrate(vm, dst); err != nil {
		panic(err)
	}
}

// TestMigrationsPerRoundWithFrom pins the baseline fix: a collector attached
// with From > 0 must not fold the migrations of the skipped window into its
// first per-round delta.
func TestMigrationsPerRoundWithFrom(t *testing.T) {
	c := clusterWithDemand(t, 2, 2, 0.3)
	e := sim.NewEngine(2, 1)
	if _, err := policy.Bind(e, c); err != nil {
		t.Fatal(err)
	}
	e.Register(&pingPongMigrator{c: c})
	series := Attach(e, c, 3)
	e.RunRounds(6)
	per := series.MigrationsPerRound()
	if len(per) != 3 {
		t.Fatalf("%d samples, want 3", len(per))
	}
	for i, v := range per {
		if v != 1 {
			t.Fatalf("per-round[%d] = %v, want 1 (pre-From migrations leaked into the delta: %v)", i, v, per)
		}
	}
}
