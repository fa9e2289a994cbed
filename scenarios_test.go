package glapsim

import (
	"fmt"
	"testing"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

// crashScenarioFixture pre-trains one small crash-churn cell and returns the
// pieces runCrashVariant needs, through runCrashScenario's own setup.
func crashScenarioFixture(t *testing.T, pms, rounds int) (Experiment, *trace.Set, *glap.NodeTables, sim.FaultPlan) {
	t.Helper()
	cfg := ScenarioConfig{Sizes: []int{pms}, Rounds: rounds, Seed: 1}.withDefaults()
	x, w, shared, plan, err := crashCell(cfg, pms, sim.ReplicationSeed(cfg.Seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	return x, w, shared, plan
}

// TestCrashChurnInvariants drives the crash scenario with a per-round check:
// after every crash/recovery round the cluster invariants hold and no
// powered-off PM retains reserved capacity. The warm run additionally
// enforces — inside runCrashVariant, failing the run — that every restored
// Q-table re-checkpoints byte-identically to its pre-crash snapshot.
func TestCrashChurnInvariants(t *testing.T) {
	x, w, shared, plan := crashScenarioFixture(t, 16, 20)
	checked := 0
	check := func(c *dc.Cluster, e *sim.Engine, r int) error {
		checked++
		if err := c.CheckInvariants(); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		for _, pm := range c.PMs {
			if !pm.On() && c.Reserved(pm) != (dc.Vec{}) {
				return fmt.Errorf("round %d: down PM %d holds reserved capacity %v", r, pm.ID, c.Reserved(pm))
			}
		}
		return nil
	}
	warm, err := runCrashVariant(x, w, shared, plan, true, check)
	if err != nil {
		t.Fatal(err)
	}
	if checked != x.Rounds {
		t.Fatalf("check hook ran %d times, want every one of %d rounds", checked, x.Rounds)
	}
	if warm.crashes < 1 || warm.recoveries < 1 {
		t.Fatalf("scenario injected %d crashes / %d recoveries, want at least one of each", warm.crashes, warm.recoveries)
	}
	if warm.evacuated+warm.stranded < 1 {
		t.Fatal("crashes displaced no VMs — the schedule only hit empty machines")
	}
	if warm.leaked != 0 {
		t.Fatalf("%d reservations leaked through crash churn", warm.leaked)
	}
	if err := warm.c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashWarmBeatsCold pins the scenario's headline: restoring a recovered
// PM's Q-tables from checkpoint reconverges with the fleet faster than cold
// re-learning via table gossip.
func TestCrashWarmBeatsCold(t *testing.T) {
	x, w, shared, plan := crashScenarioFixture(t, 16, 20)
	warm, err := runCrashVariant(x, w, shared, plan, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := runCrashVariant(x, w, shared, plan, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	wm, ok := meanOf(warm.reconverge)
	if !ok {
		t.Fatal("warm run recovered no PM")
	}
	cm, ok := meanOf(cold.reconverge)
	if !ok {
		t.Fatal("cold run recovered no PM")
	}
	if wm >= cm {
		t.Fatalf("warm restart reconverged in %.2f rounds, cold in %.2f — warm must be measurably faster", wm, cm)
	}
	// The two variants replay one fault schedule against identical stacks.
	if warm.crashes != cold.crashes {
		t.Fatalf("variants diverged: %d vs %d crashes from the same plan", warm.crashes, cold.crashes)
	}
}

// TestRunScenariosSuite runs every scenario family at one small size and
// sanity-checks each row's shape.
func TestRunScenariosSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario suite in -short mode")
	}
	cfg := ScenarioConfig{Sizes: []int{16}, Rounds: 20, Seed: 1}
	rows, err := RunScenarios(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DefaultScenarios) {
		t.Fatalf("%d rows, want one per scenario (%d)", len(rows), len(DefaultScenarios))
	}
	byScen := map[string]ScenarioRow{}
	for _, row := range rows {
		byScen[row.Scenario] = row
		if row.PMs != 16 || row.VMs != 32 || row.Rounds != 20 {
			t.Fatalf("row %q has shape %d PMs / %d VMs / %d rounds", row.Scenario, row.PMs, row.VMs, row.Rounds)
		}
		if row.SeriesHash == "" || row.EnergyKWh <= 0 {
			t.Fatalf("row %q missing fingerprint or energy", row.Scenario)
		}
	}
	crash := byScen[string(ScenarioCrashChurn)]
	if crash.Crashes < 1 || crash.WarmReconvergeRounds == nil || crash.ColdReconvergeRounds == nil {
		t.Fatalf("crash row incomplete: %+v", crash)
	}
	if *crash.WarmReconvergeRounds >= *crash.ColdReconvergeRounds {
		t.Fatalf("warm reconvergence %.2f not faster than cold %.2f",
			*crash.WarmReconvergeRounds, *crash.ColdReconvergeRounds)
	}
	if topo := byScen[string(ScenarioTopology)]; topo.MeanSwitchPowerW <= 0 || topo.NetworkEnergyKWh <= 0 {
		t.Fatalf("topology row missing switch power accounting: %+v", topo)
	}
	if rt := byScen[string(ScenarioRealTrace)]; rt.TraceVMs != 32 || rt.TraceRounds != 20 {
		t.Fatalf("real-trace row provenance %d×%d, want 32×20", rt.TraceVMs, rt.TraceRounds)
	}
	if het := byScen[string(ScenarioHetero)]; het.Policy != string(PolicyGLAP) {
		t.Fatalf("hetero row ran policy %q", het.Policy)
	}
}

// TestScenarioRowDeterminism reruns one cell, sequentially and then fanned
// out, and requires bit-identical series fingerprints.
func TestScenarioRowDeterminism(t *testing.T) {
	cfg := ScenarioConfig{
		Sizes: []int{16}, Rounds: 20, Seed: 1, Workers: 1,
		Scenarios: []Scenario{ScenarioHetero},
	}
	a, err := RunScenarios(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	b, err := RunScenarios(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].SeriesHash != b[0].SeriesHash {
		t.Fatalf("scenario rerun changed fingerprint: %s vs %s", a[0].SeriesHash, b[0].SeriesHash)
	}
}
