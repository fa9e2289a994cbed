package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	glapsim "github.com/glap-sim/glap"
)

// scenarioReport is the BENCH_scenarios.json document: configuration echo
// plus one row per scenario × size.
type scenarioReport struct {
	envMeta
	Sizes  []int                 `json:"sizes"`
	Ratio  int                   `json:"ratio"`
	Rounds int                   `json:"rounds"`
	Seed   uint64                `json:"seed"`
	Rows   []glapsim.ScenarioRow `json:"rows"`
}

// runScenarios is the `-exp scenarios` mode: the failure/heterogeneity/
// topology/real-trace suite.
func runScenarios(w io.Writer, seed uint64, rounds, workers int, sizes []int, outPath string) error {
	cfg := glapsim.ScenarioConfig{
		Sizes: sizes, Rounds: rounds, Seed: seed, Workers: workers,
	}
	fmt.Fprintf(w, "== scenario suite: sizes=%v rounds=%d seed=%d ==\n", sizes, rounds, seed)
	currentEnv().warnIfSerial(w)
	rows, err := glapsim.RunScenarios(cfg)
	if err != nil {
		return err
	}

	lines := [][]string{{"scenario", "pms", "policy", "slav", "energy kWh", "migrations", "active", "notes"}}
	for _, r := range rows {
		notes := ""
		switch r.Scenario {
		case string(glapsim.ScenarioCrashChurn):
			warm, cold := "-", "-"
			if r.WarmReconvergeRounds != nil {
				warm = fmt.Sprintf("%.1f", *r.WarmReconvergeRounds)
			}
			if r.ColdReconvergeRounds != nil {
				cold = fmt.Sprintf("%.1f", *r.ColdReconvergeRounds)
			}
			notes = fmt.Sprintf("crashes=%d evac=%d stranded=%d warm/cold reconverge=%s/%s rounds",
				r.Crashes, r.Evacuated, r.Stranded, warm, cold)
		case string(glapsim.ScenarioTopology):
			notes = fmt.Sprintf("switch %.0f W, net %.3f kWh", r.MeanSwitchPowerW, r.NetworkEnergyKWh)
		case string(glapsim.ScenarioRealTrace):
			notes = fmt.Sprintf("trace %d VMs × %d rounds via CSV", r.TraceVMs, r.TraceRounds)
		}
		lines = append(lines, fields("%s\t%d\t%s\t%.3g\t%.3f\t%d\t%d\t%s",
			r.Scenario, r.PMs, r.Policy, r.SLAV, r.EnergyKWh, r.Migrations, r.ActivePMs, notes))
	}
	table{rows: lines}.print(w)

	report := scenarioReport{
		envMeta: currentEnv(),
		Sizes:   sizes, Ratio: 2, Rounds: rounds, Seed: seed, Rows: rows,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %s (%d rows)\n", outPath, len(rows))
	return nil
}
