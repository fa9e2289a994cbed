// Command glapsim runs a single consolidation simulation with one policy and
// prints per-round metrics as CSV (round, active, overloaded, cumulative
// migrations, migration energy), followed by a summary. It is the
// micro-level companion to glapbench: use it to watch one run unfold.
//
//	glapsim -policy glap -pms 200 -ratio 3 -rounds 720 -every 10
//	glapsim -policy grmp -trace mytrace.csv -pms 100
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	glapsim "github.com/glap-sim/glap"
	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/trace"
)

func main() {
	policy := flag.String("policy", "glap", "policy: glap, grmp, ecocloud, pabfd or none")
	pms := flag.Int("pms", 100, "number of physical machines")
	ratio := flag.Int("ratio", 3, "VM:PM ratio (ignored when -trace is given)")
	rounds := flag.Int("rounds", 240, "number of 2-minute rounds")
	seed := flag.Uint64("seed", 1, "simulation seed")
	every := flag.Int("every", 10, "print a CSV row every N rounds")
	tracePath := flag.String("trace", "", "CSV workload trace (vm,round,cpu,mem); empty = synthetic")
	saveQ := flag.String("save-qtables", "", "write GLAP's converged Q store to this file after the run")
	loadQ := flag.String("load-qtables", "", "skip GLAP pre-training and load a checkpointed Q store")
	workers := flag.Int("workers", 0, "fork-join workers inside the run (0 = auto, 1 = sequential); results are identical for every setting")
	flag.Parse()

	x := glapsim.Experiment{
		PMs:     *pms,
		Ratio:   *ratio,
		Rounds:  *rounds,
		Seed:    *seed,
		Policy:  glapsim.Policy(*policy),
		Workers: *workers,
	}
	if *tracePath != "" {
		set, err := trace.LoadFile(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		x.Workload = set
		if set.NumVMs()%*pms != 0 {
			log.Fatalf("trace has %d VMs which is not a multiple of %d PMs", set.NumVMs(), *pms)
		}
		x.Ratio = set.NumVMs() / *pms
	}

	if *loadQ != "" {
		f, err := os.Open(*loadQ)
		if err != nil {
			log.Fatal(err)
		}
		tables, err := glap.LoadTables(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		x.PretrainedTables = tables
	}

	res, err := glapsim.Run(x)
	if err != nil {
		log.Fatal(err)
	}

	if *saveQ != "" && res.Pretrain != nil {
		tables, err := glap.SharedTables(res.Pretrain)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*saveQ)
		if err != nil {
			log.Fatal(err)
		}
		if err := glap.SaveTables(f, tables); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved Q store to %s\n", *saveQ)
	}

	fmt.Println("round,active_pms,overloaded_pms,cum_migrations,migration_energy_j")
	for i, s := range res.Series.Samples {
		if (i+1)%*every != 0 && i != len(res.Series.Samples)-1 {
			continue
		}
		fmt.Printf("%d,%d,%d,%d,%.1f\n",
			s.Round, s.ActivePMs, s.OverloadedPMs, s.Migrations, s.MigrationEnergyJ)
	}

	last, _ := res.Series.Last()
	fmt.Fprintf(os.Stderr, "\npolicy=%s pms=%d vms=%d rounds=%d\n", x.Policy, x.PMs, x.PMs*x.Ratio, x.Rounds)
	fmt.Fprintf(os.Stderr, "final: active=%d (BFD oracle %d) overloaded=%d migrations=%d energy=%.1fkJ\n",
		last.ActivePMs, res.BFDBaseline, last.OverloadedPMs, last.Migrations, last.MigrationEnergyJ/1000)
	fmt.Fprintf(os.Stderr, "SLA:   SLAVO=%.6g SLALM=%.6g SLAV=%.6g\n",
		res.Series.SLAVO, res.Series.SLALM, res.Series.SLAV)
	if p := res.Pretrain; p != nil {
		consensus := ""
		switch {
		case p.ConsensusRound >= 0:
			consensus = fmt.Sprintf(" (identical tables from round %d)", p.ConsensusRound)
		case p.AggRounds > 0:
			consensus = " (tables never identical)"
		}
		fmt.Fprintf(os.Stderr, "GLAP:  pre-training convergence=%.4f, learn %d rounds + aggregate %d rounds%s\n",
			p.FinalSimilarity(), p.LearnRounds, p.AggRounds, consensus)
	}
}
