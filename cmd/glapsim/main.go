// Command glapsim runs a single consolidation simulation with one policy and
// prints per-round metrics as CSV (round, active, overloaded, cumulative
// migrations, migration energy), followed by a summary. It is the
// micro-level companion to glapbench: use it to watch one run unfold.
//
//	glapsim -policy glap -pms 200 -ratio 3 -rounds 720 -every 10
//	glapsim -policy grmp -trace mytrace.csv -pms 100
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	glapsim "github.com/glap-sim/glap"
	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "glapsim:", err)
		os.Exit(1)
	}
}

// run parses args, checks the flags, runs the simulation and writes the CSV
// rows to stdout and the summary to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("glapsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	policy := fs.String("policy", "glap", "policy: glap, grmp, ecocloud, pabfd or none")
	pms := fs.Int("pms", 100, "number of physical machines")
	ratio := fs.Int("ratio", 3, "VM:PM ratio (ignored when -trace is given)")
	rounds := fs.Int("rounds", 240, "number of 2-minute rounds")
	seed := fs.Uint64("seed", 1, "simulation seed")
	every := fs.Int("every", 10, "print a CSV row every N rounds")
	tracePath := fs.String("trace", "", "CSV workload trace (vm,round,cpu,mem); empty = synthetic")
	saveQ := fs.String("save-qtables", "", "write GLAP's converged Q store to this file after the run")
	loadQ := fs.String("load-qtables", "", "skip GLAP pre-training and load a checkpointed Q store")
	workers := fs.Int("workers", 0, "workers inside the run: the learning pass, the merge lanes and the demand look-ahead (0 = auto, 1 = sequential); results are identical for every setting")
	if err := fs.Parse(args); err != nil {
		return err
	}

	x := glapsim.Experiment{
		PMs:     *pms,
		Ratio:   *ratio,
		Rounds:  *rounds,
		Seed:    *seed,
		Policy:  glapsim.Policy(*policy),
		Workers: *workers,
	}
	if *every < 1 {
		return fmt.Errorf("-every must be >= 1, got %d", *every)
	}
	if *saveQ != "" && (!x.Policy.Pretrains() || *loadQ != "") {
		return fmt.Errorf("-save-qtables needs a policy that pre-trains (glap, glap-async) and no -load-qtables")
	}
	if *tracePath != "" {
		if *pms <= 1 {
			return fmt.Errorf("-pms must be > 1, got %d", *pms)
		}
		set, err := trace.LoadFile(*tracePath)
		if err != nil {
			return err
		}
		x.Workload = set
		if set.NumVMs()%*pms != 0 {
			return fmt.Errorf("trace has %d VMs which is not a multiple of %d PMs", set.NumVMs(), *pms)
		}
		x.Ratio = set.NumVMs() / *pms
	}

	if *loadQ != "" {
		f, err := os.Open(*loadQ)
		if err != nil {
			return err
		}
		tables, err := glap.LoadTables(f)
		f.Close()
		if err != nil {
			return err
		}
		x.PretrainedTables = tables
	}

	res, err := glapsim.Run(x)
	if err != nil {
		return err
	}

	if *saveQ != "" {
		tables, err := glap.SharedTables(res.Pretrain)
		if err != nil {
			return err
		}
		f, err := os.Create(*saveQ)
		if err != nil {
			return err
		}
		if err := glap.SaveTables(f, tables); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "saved Q store to %s\n", *saveQ)
	}

	fmt.Fprintln(stdout, "round,active_pms,overloaded_pms,cum_migrations,migration_energy_j")
	for i, s := range res.Series.Samples {
		if (i+1)%*every != 0 && i != len(res.Series.Samples)-1 {
			continue
		}
		fmt.Fprintf(stdout, "%d,%d,%d,%d,%.1f\n",
			s.Round, s.ActivePMs, s.OverloadedPMs, s.Migrations, s.MigrationEnergyJ)
	}

	last, _ := res.Series.Last()
	fmt.Fprintf(stderr, "\npolicy=%s pms=%d vms=%d rounds=%d\n", x.Policy, x.PMs, x.PMs*x.Ratio, x.Rounds)
	fmt.Fprintf(stderr, "final: active=%d (BFD oracle %d) overloaded=%d migrations=%d energy=%.1fkJ\n",
		last.ActivePMs, res.BFDBaseline, last.OverloadedPMs, last.Migrations, last.MigrationEnergyJ/1000)
	fmt.Fprintf(stderr, "SLA:   SLAVO=%.6g SLALM=%.6g SLAV=%.6g\n",
		res.Series.SLAVO, res.Series.SLALM, res.Series.SLAV)
	if p := res.Pretrain; p != nil {
		consensus := ""
		switch {
		case p.ConsensusRound >= 0:
			consensus = fmt.Sprintf(" (identical tables from round %d)", p.ConsensusRound)
		case p.AggRounds > 0:
			consensus = " (tables never identical)"
		}
		fmt.Fprintf(stderr, "GLAP:  pre-training learn %d rounds + aggregate %d rounds%s\n",
			p.LearnRounds, p.AggRounds, consensus)
	}
	if d := res.Decisions; d != nil {
		fmt.Fprintln(stderr, "Algorithm 3 decisions (direction verdicts | MIGRATE() outcomes):")
		for _, b := range []struct {
			from, to int
			k        glap.DecisionCounts
		}{{0, d.Split - 1, d.Early}, {d.Split, x.Rounds - 1, d.Late}} {
			if b.from > b.to {
				continue
			}
			k := b.k
			fmt.Fprintf(stderr, "  rounds %d-%d: none=%d empty=%d shed=%d | no-offer=%d in-veto=%d cap-veto=%d migrate-err=%d migrated=%d",
				b.from, b.to, k.None, k.Empty, k.Shed, k.NoOffer, k.InVeto, k.CapVeto, k.MigrateErr, k.Migrated)
			if x.Policy == glapsim.PolicyGLAPAsync {
				fmt.Fprintf(stderr, " offer-timeout=%d lost=%d", k.OfferTimeout, k.Lost)
			}
			fmt.Fprintln(stderr)
		}
	}
	return nil
}
