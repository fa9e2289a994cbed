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
	"io"
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
	stdout     io.Writer
	grid       glapsim.Grid
	drops      []float64
	lats       []int64
	scenSizes  []int
	scenRounds int
	scenOut    string

	conv  []*glapsim.ConvergenceResult // Figure 5's run
	cells map[glapsim.Cell]*glapsim.CellStats
	order []glapsim.Cell
}

// experiment is one -exp name. Each artifact of the paper's evaluation, and
// so of -exp all, builds the table that -exp prints and -csv writes; a grid
// one reads o.cells and o.order, which run fills from one RunGrid pass
// after the other experiments ran. robust and scenarios have no table: they
// run and print on their own.
type experiment struct {
	name  string
	desc  string
	grid  bool // table reads the grid pass
	table func(o *options) table
	run   func(o *options) error // runs before table, if both are set
	// firstOf names the list flags of which the experiment reads only the
	// first entry.
	firstOf []string
}

// experiments is the single source of the -exp names: the flag's help text,
// the validation of its value and the dispatch all read this table, and
// TestDocsNameOnlyKnownExperiments holds the user-facing docs to it.
var experiments = []experiment{
	{name: "f5", desc: "Q-value convergence", firstOf: []string{"sizes"}, run: func(o *options) (err error) {
		o.conv, err = glapsim.RunConvergence(o.grid.Sizes[0], o.grid.Ratios, glap.Config{}, o.grid.Seed, 10)
		return err
	}, table: func(o *options) table { return convergenceTable(o.grid.Sizes[0], o.conv) }},
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
	{name: "robust", desc: "async consolidation under loss × latency", firstOf: []string{"sizes", "ratios"}, run: func(o *options) error {
		return runRobust(o.stdout, glapsim.RobustConfig{
			PMs: o.grid.Sizes[0], Ratio: o.grid.Ratios[0], Rounds: o.grid.Rounds, Reps: o.grid.Reps,
			Seed: o.grid.Seed, DropProbs: o.drops, Latencies: o.lats, Workers: o.grid.Workers,
		})
	}},
	{name: "scenarios", desc: "crash-churn / hetero / topology / real-trace suite", run: func(o *options) error {
		return runScenarios(o.stdout, o.grid.Seed, o.scenRounds, o.grid.Workers, o.scenSizes, o.scenOut)
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
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "glapbench:", err)
		os.Exit(1)
	}
}

// run parses args, checks the flags, runs the selected experiments and
// writes their tables to stdout and notes on the flags to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("glapbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", expUsage())
	sizes := fs.String("sizes", "100", "comma-separated cluster sizes")
	ratios := fs.String("ratios", "2,3,4", "comma-separated VM:PM ratios")
	rounds := fs.Int("rounds", 240, "consolidation rounds (2 simulated minutes each)")
	reps := fs.Int("reps", 5, "replications per grid cell (paper: 20)")
	seed := fs.Uint64("seed", 1, "master seed")
	workers := fs.Int("workers", 0, "parallel replication workers (0 = GOMAXPROCS)")
	csvDir := fs.String("csv", "", "also write per-figure CSV files into this directory")
	drops := fs.String("drops", "0,0.1,0.2", "comma-separated message-loss probabilities for -exp robust")
	lats := fs.String("lats", "1,30,90", "comma-separated one-way message latencies for -exp robust")
	scenOut := fs.String("scen-out", "BENCH_scenarios.json", "output path for the -exp scenarios report")
	scenSizes := fs.String("scen-sizes", "40,80", "comma-separated cluster sizes for -exp scenarios")
	scenRounds := fs.Int("scen-rounds", 60, "consolidation rounds per scenario run for -exp scenarios")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	picked, err := selectExperiments(*exp)
	if err != nil {
		return err
	}
	gridSizes, err1 := parseList("sizes", *sizes, strconv.Atoi)
	gridRatios, err2 := parseList("ratios", *ratios, strconv.Atoi)
	dropList, err3 := parseList("drops", *drops, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	latList, err4 := parseList("lats", *lats, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
	scenList, err5 := parseList("scen-sizes", *scenSizes, strconv.Atoi)
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		return err
	}
	if *csvDir != "" {
		if err := csvWritable(picked); err != nil {
			return err
		}
	}
	lists := map[string][]int{"sizes": gridSizes, "ratios": gridRatios}
	for _, x := range picked {
		if note := firstOnlyNote(x, lists); note != "" {
			fmt.Fprintln(stderr, "glapbench:", note)
		}
	}
	o := &options{
		stdout: stdout,
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
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
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
				fmt.Fprintln(stderr, "glapbench:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "glapbench:", err)
			}
			f.Close()
		}()
	}

	// The tables -csv writes: Figure 5's if it ran, then gridTables.
	var tables []table
	needGrid := false
	for _, x := range picked {
		if x.run != nil {
			if err := x.run(o); err != nil {
				return err
			}
		}
		switch {
		case x.grid:
			needGrid = true
		case x.table != nil:
			t := x.table(o)
			t.print(stdout)
			tables = append(tables, t)
		}
	}
	if needGrid {
		fmt.Fprintf(stdout, "\n== running grid: sizes=%v ratios=%v rounds=%d reps=%d ==\n",
			o.grid.Sizes, o.grid.Ratios, o.grid.Rounds, o.grid.Reps)
		if o.cells, o.order, err = glapsim.RunGrid(o.grid); err != nil {
			return err
		}
		for _, x := range picked {
			if x.grid {
				x.table(o).print(stdout)
			}
		}
		tables = append(tables, gridTables(o)...)
	}
	if *csvDir != "" {
		if err := writeCSVDir(*csvDir, tables); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote CSV files to %s\n", *csvDir)
	}
	return nil
}

// csvWritable refuses -csv for a selection that builds no table, naming the
// selected experiments: robust and scenarios print their results, and
// scenarios writes its own JSON report.
func csvWritable(picked []experiment) error {
	var names []string
	for _, x := range picked {
		if x.table != nil {
			return nil
		}
		names = append(names, x.name)
	}
	return fmt.Errorf("-csv: -exp %s builds no table to write; only f5 to t1 write CSV files", strings.Join(names, ","))
}

// firstOnlyNote is the line that tells a user which entry of a list flag
// experiment x reads, when x reads only the first and the flag holds more;
// empty when there is nothing to tell. -exp all takes f5's note with it, so
// the paper-grid command's several sizes stay valid.
func firstOnlyNote(x experiment, lists map[string][]int) string {
	var used, ignored []string
	for _, name := range x.firstOf {
		if l := lists[name]; len(l) > 1 {
			used = append(used, fmt.Sprintf("-%s %d", name, l[0]))
			ignored = append(ignored, fmt.Sprintf("-%s %s", name, joinInts(l[1:])))
		}
	}
	if len(used) == 0 {
		return ""
	}
	return fmt.Sprintf("-exp %s runs %s only; ignoring %s", x.name, strings.Join(used, " and "), strings.Join(ignored, " and "))
}

func joinInts(l []int) string {
	s := make([]string, len(l))
	for i, v := range l {
		s[i] = strconv.Itoa(v)
	}
	return strings.Join(s, ",")
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
