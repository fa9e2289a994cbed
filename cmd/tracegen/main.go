// Command tracegen generates a synthetic Google-cluster-style workload trace
// and writes it as CSV (vm,round,cpu,mem), or summarises the statistics of
// an existing trace file. The generated files feed glapsim -trace and any
// external analysis.
//
//	tracegen -vms 400 -rounds 720 -seed 7 -o trace.csv
//	tracegen -stats trace.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/glap-sim/glap/internal/stats"
	"github.com/glap-sim/glap/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run parses args and either generates a trace, written to -o or as CSV to
// stdout, or summarises the -stats file; the summary goes to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	vms := fs.Int("vms", 200, "number of VM series")
	rounds := fs.Int("rounds", 720, "series length in rounds")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("o", "", "output CSV path (default stdout)")
	statsPath := fs.String("stats", "", "summarise an existing CSV trace instead of generating")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *statsPath != "" {
		set, err := trace.LoadFile(*statsPath)
		if err != nil {
			return err
		}
		printStats(stderr, set)
		return nil
	}

	set, err := trace.Generate(trace.DefaultGenConfig(*vms, *rounds, *seed))
	if err != nil {
		return err
	}
	if *out == "" {
		return trace.WriteCSV(stdout, set)
	}
	// A .gz suffix selects compressed output.
	if err := trace.WriteFile(*out, set); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d VMs x %d rounds to %s\n", set.NumVMs(), set.Rounds(), *out)
	printStats(stderr, set)
	// Only a generated set knows its archetypes: a loaded file carries none.
	byArch := map[string]int{}
	for vm := 0; vm < set.NumVMs(); vm++ {
		byArch[set.ArchetypeOf(vm).String()]++
	}
	fmt.Fprintf(stderr, "archetype mix: %v\n", byArch)
	return nil
}

// printStats writes the utilisation summary of set to w.
func printStats(w io.Writer, set *trace.Set) {
	cpu, mem := set.MeanUtilisation()
	fmt.Fprintf(w, "mean utilisation: cpu=%.3f mem=%.3f\n", cpu, mem)

	var means, autos []float64
	for vm := 0; vm < set.NumVMs(); vm++ {
		ser := set.Series(vm)
		cs := make([]float64, len(ser))
		for i, s := range ser {
			cs[i] = s.CPU
		}
		means = append(means, stats.Mean(cs))
		autos = append(autos, stats.Autocorrelation(cs, 1))
	}
	ms := stats.Summarize(means)
	fmt.Fprintf(w, "per-VM mean cpu: median=%.3f p10=%.3f p90=%.3f max=%.3f\n",
		ms.Median, ms.P10, ms.P90, ms.Max)
	fmt.Fprintf(w, "lag-1 autocorrelation: median=%.3f\n", stats.Summarize(autos).Median)
}
