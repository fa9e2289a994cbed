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
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	glapsim "github.com/glap-sim/glap"
	"github.com/glap-sim/glap/internal/glap"
)

// options carries the parsed flags to the experiments, and what one
// experiment leaves for a later step: Figure 5's result for the CSV writer,
// the shared grid pass for the figures that print from it.
type options struct {
	grid       glapsim.Grid
	drops      []float64
	lats       []int64
	scenSizes  []int
	scenRounds int
	scenOut    string

	conv  []*glapsim.ConvergenceResult
	cells map[glapsim.Cell]*glapsim.CellStats
	order []glapsim.Cell
}

// experiment is one -exp name. The grid experiments print one figure each
// from a single RunGrid pass, which main makes once after the others ran.
type experiment struct {
	name  string
	desc  string
	paper bool // part of the paper's evaluation, so part of -exp all
	grid  bool // run prints from o.cells / o.order
	run   func(o *options)
}

// experiments is the single source of the -exp names: the flag's help text,
// the validation of its value and the dispatch all read this table, and
// TestDocsNameOnlyKnownExperiments holds the user-facing docs to it.
var experiments = []experiment{
	{name: "f5", desc: "Q-value convergence", paper: true, run: func(o *options) { o.conv = runF5(o.grid) }},
	{name: "f6", desc: "packing vs BFD", paper: true, grid: true, run: func(o *options) { printF6(o.cells, o.order) }},
	{name: "f7", desc: "overloaded PMs", paper: true, grid: true, run: func(o *options) { printF7(o.cells, o.order) }},
	{name: "f8", desc: "migrations", paper: true, grid: true, run: func(o *options) { printF8(o.cells, o.order) }},
	{name: "f9", desc: "cumulative migrations", paper: true, grid: true, run: func(o *options) { printF9(o.grid, o.cells, o.order) }},
	{name: "f10", desc: "migration energy", paper: true, grid: true, run: func(o *options) { printF10(o.cells, o.order) }},
	{name: "t1", desc: "SLAV table", paper: true, grid: true, run: func(o *options) { printT1(o.grid, o.cells) }},
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
		if want[x.name] || (want["all"] && x.paper) {
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

	o := &options{
		grid: glapsim.Grid{
			Sizes:   parseInts(*sizes),
			Ratios:  parseInts(*ratios),
			Rounds:  *rounds,
			Reps:    *reps,
			Seed:    *seed,
			Workers: *workers,
		},
		drops:      parseFloats(*drops),
		lats:       parseInt64s(*lats),
		scenSizes:  parseInts(*scenSizes),
		scenRounds: *scenRounds,
		scenOut:    *scenOut,
	}

	needGrid := false
	for _, x := range picked {
		if x.grid {
			needGrid = true
		} else {
			x.run(o)
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
			x.run(o)
		}
	}
	if *csvDir != "" {
		if err := writeCSVDir(*csvDir, o.grid, o.cells, o.order, o.conv); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote CSV files to %s\n", *csvDir)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			log.Fatalf("bad integer list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out
}

func runF5(grid glapsim.Grid) []*glapsim.ConvergenceResult {
	pms := grid.Sizes[0]
	fmt.Printf("== Figure 5: Q-value convergence (cosine similarity), %d PMs ==\n", pms)
	fmt.Println("   learning phase (WOG) then aggregation phase (WG)")
	res, err := glapsim.RunConvergence(pms, grid.Ratios, glap.Config{}, grid.Seed, 10)
	if err != nil {
		log.Fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "round\tphase")
	for _, r := range res {
		fmt.Fprintf(w, "\tratio %d", r.Ratio)
	}
	fmt.Fprintln(w)
	if len(res) > 0 {
		for i, round := range res[0].Rounds {
			phase := "WOG"
			if round >= res[0].AggStart {
				phase = "WG"
			}
			fmt.Fprintf(w, "%d\t%s", round, phase)
			for _, r := range res {
				if i < len(r.Cosine) {
					fmt.Fprintf(w, "\t%.4f", r.Cosine[i])
				} else {
					fmt.Fprint(w, "\t-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	w.Flush()
	return res
}

func header(w *tabwriter.Writer, cols ...string) {
	fmt.Fprintln(w, strings.Join(cols, "\t"))
}

func printF6(cells map[glapsim.Cell]*glapsim.CellStats, order []glapsim.Cell) {
	fmt.Println("\n== Figure 6: fraction of overloaded/active PMs and packing vs BFD ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header(w, "cell", "frac overl. (mean)", "active (median)", "BFD baseline")
	for _, c := range order {
		s := cells[c]
		fmt.Fprintf(w, "%s\t%.4f\t%.0f\t%.0f\n",
			c, s.FracOverloaded.Mean, s.Active.Median, s.BFDBaseline.Median)
	}
	w.Flush()
}

func printF7(cells map[glapsim.Cell]*glapsim.CellStats, order []glapsim.Cell) {
	fmt.Println("\n== Figure 7: number of overloaded PMs (median [p10, p90] per round) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header(w, "cell", "median", "p10", "p90", "mean")
	for _, c := range order {
		s := cells[c]
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.2f\n",
			c, s.Overloaded.Median, s.Overloaded.P10, s.Overloaded.P90, s.Overloaded.Mean)
	}
	w.Flush()
}

func printF8(cells map[glapsim.Cell]*glapsim.CellStats, order []glapsim.Cell) {
	fmt.Println("\n== Figure 8: number of migrations (per-round median [p10, p90]; total) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header(w, "cell", "median/round", "p10", "p90", "total (median)")
	for _, c := range order {
		s := cells[c]
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.0f\n",
			c, s.MigrationsPerRound.Median, s.MigrationsPerRound.P10,
			s.MigrationsPerRound.P90, s.TotalMigrations.Median)
	}
	w.Flush()
}

func printF9(grid glapsim.Grid, cells map[glapsim.Cell]*glapsim.CellStats, order []glapsim.Cell) {
	// The paper plots cumulative migrations for the 1000-node cluster; we
	// use the middle configured size.
	size := grid.Sizes[len(grid.Sizes)/2]
	fmt.Printf("\n== Figure 9: cumulative migrations over time (%d PMs) ==\n", size)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "round")
	var series []*glapsim.CellStats
	for _, c := range order {
		if c.PMs == size {
			fmt.Fprintf(w, "\t%d/%s", c.Ratio, c.Policy)
			series = append(series, cells[c])
		}
	}
	fmt.Fprintln(w)
	if len(series) > 0 {
		n := len(series[0].CumMigrations)
		step := n / 12
		if step == 0 {
			step = 1
		}
		for i := step - 1; i < n; i += step {
			fmt.Fprintf(w, "%d", i+1)
			for _, s := range series {
				fmt.Fprintf(w, "\t%.0f", s.CumMigrations[i])
			}
			fmt.Fprintln(w)
		}
	}
	w.Flush()
}

func printF10(cells map[glapsim.Cell]*glapsim.CellStats, order []glapsim.Cell) {
	fmt.Println("\n== Figure 10: energy overhead of migrations (kJ, median [p10, p90]) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header(w, "cell", "median", "p10", "p90")
	for _, c := range order {
		s := cells[c]
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\n", c, s.EnergyKJ.Median, s.EnergyKJ.P10, s.EnergyKJ.P90)
	}
	w.Flush()
}

func printT1(grid glapsim.Grid, cells map[glapsim.Cell]*glapsim.CellStats) {
	fmt.Println("\n== Table I: SLAV for various cluster sizes and workload ratios ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "size-ratio")
	for _, p := range glapsim.Policies {
		fmt.Fprintf(w, "\t%s", p)
	}
	fmt.Fprintln(w)
	for _, size := range grid.Sizes {
		for _, ratio := range grid.Ratios {
			fmt.Fprintf(w, "%d-%d", size, ratio)
			for _, p := range glapsim.Policies {
				s, ok := cells[glapsim.Cell{PMs: size, Ratio: ratio, Policy: p}]
				if !ok {
					fmt.Fprint(w, "\t-")
					continue
				}
				fmt.Fprintf(w, "\t%.3g", s.SLAV.Median)
			}
			fmt.Fprintln(w)
		}
	}
	w.Flush()
}
