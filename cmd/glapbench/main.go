// Command glapbench regenerates every table and figure of the paper's
// evaluation (Section V): Figure 5 (Q-value convergence), Figures 6-10
// (packing, overloads, migrations, cumulative migrations, migration energy)
// and Table I (SLAV). Scale is configurable; the paper's full grid is
//
//	glapbench -exp all -sizes 500,1000,2000 -ratios 2,3,4 -rounds 720 -reps 20
//
// which takes a long while on a laptop — the defaults run a reduced grid
// with the same experimental structure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	glapsim "github.com/glap-sim/glap"
	"github.com/glap-sim/glap/internal/glap"
)

// options carries the parsed flags to the experiments, and the grid pass
// to the tables drawn from it.
type options struct {
	grid       glapsim.Grid
	drops      []float64
	lats       []int64
	scenSizes  []int
	scenRounds int
	scenOut    string

	cells map[glapsim.Cell]*glapsim.CellStats
	order []glapsim.Cell
}

// experiment is one -exp name. Each artifact of the paper's evaluation, and
// so of -exp all, builds the table that -exp prints and -csv writes; a grid
// one reads o.cells and o.order, which main fills from one RunGrid pass
// after the other experiments ran. robust and scenarios have no table: they
// run and print on their own.
type experiment struct {
	name  string
	desc  string
	grid  bool // table reads the grid pass
	table func(o *options) table
	run   func(o *options)
}

// experiments is the single source of the -exp names: the flag's help text,
// the validation of its value and the dispatch all read this table, and
// TestDocsNameOnlyKnownExperiments holds the user-facing docs to it.
var experiments = []experiment{
	{name: "f5", desc: "Q-value convergence", table: func(o *options) table {
		pms := o.grid.Sizes[0]
		res, err := glapsim.RunConvergence(pms, o.grid.Ratios, glap.Config{}, o.grid.Seed, 10)
		if err != nil {
			log.Fatal(err)
		}
		return convergenceTable(pms, res)
	}},
	{name: "f6", desc: "packing vs BFD", grid: true, table: cellTable(
		"Figure 6: fraction of overloaded/active PMs and packing vs BFD", "figure6_packing.csv",
		[]string{"frac_overloaded_mean", "active_median", "bfd_baseline_median"},
		func(s *glapsim.CellStats) []float64 {
			return []float64{s.FracOverloaded.Mean, s.Active.Median, s.BFDBaseline.Median}
		})},
	{name: "f7", desc: "overloaded PMs", grid: true, table: cellTable(
		"Figure 7: number of overloaded PMs (median [p10, p90] per round)", "figure7_overloaded.csv",
		[]string{"median", "p10", "p90", "mean"},
		func(s *glapsim.CellStats) []float64 {
			return []float64{s.Overloaded.Median, s.Overloaded.P10, s.Overloaded.P90, s.Overloaded.Mean}
		})},
	{name: "f8", desc: "migrations", grid: true, table: cellTable(
		"Figure 8: number of migrations (per-round median [p10, p90]; total)", "figure8_migrations.csv",
		[]string{"per_round_median", "per_round_p10", "per_round_p90", "total_median"},
		func(s *glapsim.CellStats) []float64 {
			m := s.MigrationsPerRound
			return []float64{m.Median, m.P10, m.P90, s.TotalMigrations.Median}
		})},
	{name: "f9", desc: "cumulative migrations", grid: true, table: cumulativeTable},
	{name: "f10", desc: "migration energy", grid: true, table: cellTable(
		"Figure 10: energy overhead of migrations (kJ, median [p10, p90])", "figure10_energy.csv",
		[]string{"energy_kj_median", "p10", "p90"},
		func(s *glapsim.CellStats) []float64 {
			return []float64{s.EnergyKJ.Median, s.EnergyKJ.P10, s.EnergyKJ.P90}
		})},
	{name: "t1", desc: "SLAV table", grid: true, table: slavTable},
	{name: "robust", desc: "async consolidation under loss × latency", run: func(o *options) {
		runRobust(glapsim.RobustConfig{
			PMs: o.grid.Sizes[0], Ratio: o.grid.Ratios[0], Rounds: o.grid.Rounds, Reps: o.grid.Reps,
			Seed: o.grid.Seed, DropProbs: o.drops, Latencies: o.lats, Workers: o.grid.Workers,
		})
	}},
	{name: "scenarios", desc: "crash-churn / hetero / topology / real-trace suite", run: func(o *options) {
		runScenarios(o.grid.Seed, o.scenRounds, o.grid.Workers, o.scenSizes, o.scenOut)
	}},
}

// energyESV is the grid artifact no -exp name prints: -csv writes it beside
// the figures.
var energyESV = cellTable("total energy and ESV (energy × SLAV)", "extra_energy_esv.csv",
	[]string{"total_energy_kwh_median", "esv_median"},
	func(s *glapsim.CellStats) []float64 { return []float64{s.TotalEnergyKWh.Median, s.ESV.Median} })

// gridTables is every artifact of the grid pass, printed or not, in table
// order with the energy/ESV extra last.
func gridTables(o *options) []table {
	var out []table
	for _, x := range experiments {
		if x.grid {
			out = append(out, x.table(o))
		}
	}
	return append(out, energyESV(o))
}

// expUsage renders the -exp help text from the experiment table.
func expUsage() string {
	var b strings.Builder
	b.WriteString("comma-separated experiments: ")
	for _, x := range experiments {
		fmt.Fprintf(&b, "%s (%s), ", x.name, x.desc)
	}
	b.WriteString("or all (every figure and table of the paper: f5 to t1)")
	return b.String()
}

// selectExperiments resolves an -exp value against the experiment table, in
// table order. A name the table does not hold is an error that lists the
// ones it does, so a retired or mistyped experiment cannot pass for a run
// that printed nothing.
func selectExperiments(spec string) ([]experiment, error) {
	names := make([]string, len(experiments))
	for i, x := range experiments {
		names[i] = x.name
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name != "all" && !slices.Contains(names, name) {
			return nil, fmt.Errorf("unknown experiment %q: valid -exp values are %s, all", name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	var picked []experiment
	for _, x := range experiments {
		if want[x.name] || (want["all"] && x.table != nil) {
			picked = append(picked, x)
		}
	}
	return picked, nil
}

func main() {
	exp := flag.String("exp", "all", expUsage())
	sizes := flag.String("sizes", "100", "comma-separated cluster sizes")
	ratios := flag.String("ratios", "2,3,4", "comma-separated VM:PM ratios")
	rounds := flag.Int("rounds", 240, "consolidation rounds (2 simulated minutes each)")
	reps := flag.Int("reps", 5, "replications per grid cell (paper: 20)")
	seed := flag.Uint64("seed", 1, "master seed")
	workers := flag.Int("workers", 0, "parallel replication workers (0 = GOMAXPROCS)")
	csvDir := flag.String("csv", "", "also write per-figure CSV files into this directory")
	drops := flag.String("drops", "0,0.1,0.2", "comma-separated message-loss probabilities for -exp robust")
	lats := flag.String("lats", "1,30,90", "comma-separated one-way message latencies for -exp robust")
	scenOut := flag.String("scen-out", "BENCH_scenarios.json", "output path for the -exp scenarios report")
	scenSizes := flag.String("scen-sizes", "40,80", "comma-separated cluster sizes for -exp scenarios")
	scenRounds := flag.Int("scen-rounds", 60, "consolidation rounds per scenario run for -exp scenarios")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	picked, err := selectExperiments(*exp)
	if err != nil {
		log.Fatal(err)
	}
	gridSizes, err1 := parseList("sizes", *sizes, strconv.Atoi)
	gridRatios, err2 := parseList("ratios", *ratios, strconv.Atoi)
	dropList, err3 := parseList("drops", *drops, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	latList, err4 := parseList("lats", *lats, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
	scenList, err5 := parseList("scen-sizes", *scenSizes, strconv.Atoi)
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		log.Fatal(err)
	}
	o := &options{
		grid: glapsim.Grid{
			Sizes:   gridSizes,
			Ratios:  gridRatios,
			Rounds:  *rounds,
			Reps:    *reps,
			Seed:    *seed,
			Workers: *workers,
		},
		drops:      dropList,
		lats:       latList,
		scenSizes:  scenList,
		scenRounds: *scenRounds,
		scenOut:    *scenOut,
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}()
	}

	// The tables -csv writes: Figure 5's if it ran, then gridTables.
	var tables []table
	needGrid := false
	for _, x := range picked {
		switch {
		case x.grid:
			needGrid = true
		case x.run != nil:
			x.run(o)
		default:
			t := x.table(o)
			t.print(os.Stdout)
			tables = append(tables, t)
		}
	}
	if !needGrid {
		return
	}
	fmt.Printf("\n== running grid: sizes=%v ratios=%v rounds=%d reps=%d ==\n",
		o.grid.Sizes, o.grid.Ratios, o.grid.Rounds, o.grid.Reps)
	o.cells, o.order, err = glapsim.RunGrid(o.grid)
	if err != nil {
		log.Fatal(err)
	}
	for _, x := range picked {
		if x.grid {
			x.table(o).print(os.Stdout)
		}
	}
	if *csvDir != "" {
		if err := writeCSVDir(*csvDir, append(tables, gridTables(o)...)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote CSV files to %s\n", *csvDir)
	}
}

// parseList parses the comma-separated value of the list flag name, skipping
// blank items. An empty list is refused before any run starts: every
// experiment indexes or sweeps its lists.
func parseList[T any](name, s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := parse(f)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad list %q: %v", name, s, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s: empty list %q", name, s)
	}
	return out, nil
}
