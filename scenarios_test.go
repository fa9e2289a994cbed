package glapsim

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
)

// crashCellRuns lists one small crash-churn cell through the suite's own run
// list: the warm run, then the cold one.
func crashCellRuns(t *testing.T) ([]sweepRun, scenarioCell) {
	t.Helper()
	cfg := ScenarioConfig{Sizes: []int{16}, Rounds: 20, Seed: 1, Scenarios: []Scenario{ScenarioCrashChurn}}.withDefaults()
	runs, cells, err := scenarioRuns(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return runs, cells[0]
}

// TestCrashChurnInvariants drives the warm crash run with a per-round check:
// after every crash/recovery round the cluster invariants hold and no
// powered-off PM retains reserved capacity, and they still hold after the
// drain. The hook itself enforces — failing the run — that every restored
// Q-table re-checkpoints byte-identically to its pre-crash snapshot.
func TestCrashChurnInvariants(t *testing.T) {
	runs, cell := crashCellRuns(t)
	checked, install := 0, runs[0].install
	runs[0].install = func(s *stack) func() error {
		finish := install(s)
		var err error
		s.e.Observe(func(e *sim.Engine, r int) {
			for _, pm := range s.c.PMs {
				if err == nil && !pm.On() && s.c.Reserved(pm) != (dc.Vec{}) {
					err = fmt.Errorf("round %d: down PM %d holds reserved capacity %v", r, pm.ID, s.c.Reserved(pm))
				}
			}
			if checked++; err == nil {
				err = s.c.CheckInvariants()
			}
		})
		return func() error { return errors.Join(finish(), err, s.c.CheckInvariants()) }
	}
	recs, err := sweep(runs[:1], 1, (*stack).outcome)
	if err != nil {
		t.Fatal(err)
	}
	warm := cell.warm
	if checked != runs[0].x.Rounds || warm.crashes < 1 || warm.recoveries < 1 || warm.evacuated+warm.stranded < 1 || recs[0].leaked != 0 {
		t.Fatalf("checked %d of %d rounds; %d crashes / %d recoveries displaced %d VMs and leaked %d reservations; want every round, at least one of each, no leak",
			checked, runs[0].x.Rounds, warm.crashes, warm.recoveries, warm.evacuated+warm.stranded, recs[0].leaked)
	}
}

// TestCrashWarmBeatsCold pins the scenario's headline: restoring a recovered
// PM's Q-tables from checkpoint reconverges with the fleet faster than cold
// re-learning via table gossip.
func TestCrashWarmBeatsCold(t *testing.T) {
	runs, cell := crashCellRuns(t)
	if _, err := sweep(runs, 1, (*stack).outcome); err != nil {
		t.Fatal(err)
	}
	warm, cold := cell.warm, cell.cold
	if len(warm.reconverge) == 0 || len(cold.reconverge) == 0 {
		t.Fatalf("a variant recovered no PM: %d warm, %d cold recoveries", len(warm.reconverge), len(cold.reconverge))
	}
	if wm, cm := stats.Mean(warm.reconverge), stats.Mean(cold.reconverge); wm >= cm {
		t.Fatalf("warm restart reconverged in %.2f rounds, cold in %.2f — warm must be measurably faster", wm, cm)
	}
	// The two variants replay one fault schedule against identical stacks.
	if warm.crashes != cold.crashes {
		t.Fatalf("variants diverged: %d vs %d crashes from the same plan", warm.crashes, cold.crashes)
	}
}

// TestRunScenariosSuite runs the suite at the committed BENCH_scenarios.json's
// settings: every row must come back as committed, series fingerprint
// included (the hetero rows pin the G4/G5 capacity routing), and the rows
// must show each family's effect.
func TestRunScenariosSuite(t *testing.T) {
	raw, err := os.ReadFile("BENCH_scenarios.json")
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Sizes         []int
		Ratio, Rounds int
		Seed          uint64
		Rows          []ScenarioRow
	}
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatal(err)
	}
	rows, err := RunScenarios(ScenarioConfig{Sizes: art.Sizes, Ratio: art.Ratio, Rounds: art.Rounds, Seed: art.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 || len(art.Rows) != 8 {
		t.Fatalf("%d rows against the artifact's %d, want 8", len(rows), len(art.Rows))
	}
	for i, row := range rows {
		if !reflect.DeepEqual(row, art.Rows[i]) {
			t.Fatalf("row %d (%s at %d PMs, hash %s) differs from the artifact's (hash %s):\n got %+v\nwant %+v",
				i, row.Scenario, row.PMs, row.SeriesHash, art.Rows[i].SeriesHash, row, art.Rows[i])
		}
		switch Scenario(row.Scenario) {
		case ScenarioCrashChurn:
			if row.Crashes < 1 || row.WarmReconvergeRounds == nil || row.ColdReconvergeRounds == nil ||
				*row.WarmReconvergeRounds >= *row.ColdReconvergeRounds {
				t.Fatalf("crash row: want crashes and warm reconvergence faster than cold: %+v", row)
			}
		case ScenarioTopology:
			if row.MeanSwitchPowerW <= 0 || row.NetworkEnergyKWh <= 0 {
				t.Fatalf("topology row missing switch power accounting: %+v", row)
			}
		case ScenarioRealTrace:
			if row.TraceVMs != row.VMs || row.TraceRounds != row.Rounds {
				t.Fatalf("real-trace row provenance %d×%d, want %d×%d", row.TraceVMs, row.TraceRounds, row.VMs, row.Rounds)
			}
		}
	}
}

// TestRunScenariosRefusesBadCellFirst: a suite whose last size is invalid is
// refused, naming the cell, before any run starts; an unknown family behind
// a valid one is refused while the run list is built.
func TestRunScenariosRefusesBadCellFirst(t *testing.T) {
	runs, _, err := scenarioRuns(ScenarioConfig{Sizes: []int{16, 1}, Rounds: 20}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	started := countStarts(runs)
	if _, err := sweep(runs, 0, (*stack).outcome); err == nil || !strings.Contains(err.Error(), "scenario crash-churn at 1 PMs") || started.Load() != 0 {
		t.Fatalf("got %v after %d runs started; want size 1 refused before any", err, started.Load())
	}
	cfg := ScenarioConfig{Sizes: []int{16}, Scenarios: []Scenario{ScenarioHetero, "bogus"}}.withDefaults()
	if _, _, err := scenarioRuns(cfg); err == nil || !strings.Contains(err.Error(), `unknown scenario "bogus"`) {
		t.Fatalf("got %v; want the unknown scenario refused", err)
	}
}

// TestScenarioRowDeterminism runs every family at one small size,
// sequentially and then fanned out, and requires identical rows.
func TestScenarioRowDeterminism(t *testing.T) {
	cfg := ScenarioConfig{Sizes: []int{16}, Rounds: 20, Seed: 1, Workers: 1}
	a, err := RunScenarios(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	b, err := RunScenarios(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("suite differs between Workers=1 and Workers=8:\n%+v\nvs\n%+v", a, b)
	}
}
