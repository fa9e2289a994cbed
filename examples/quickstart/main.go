// Command quickstart is the smallest end-to-end GLAP run: by default a
// 100-PM cluster with a 2:1 VM:PM ratio driven by a synthetic
// Google-cluster-style workload for 240 rounds (8 simulated hours),
// printing the consolidation outcome and SLA metrics. The cluster shape is
// flag-tunable so CI can smoke-run a small instance.
package main

import (
	"flag"
	"fmt"
	"log"

	glapsim "github.com/glap-sim/glap"
)

func main() {
	pms := flag.Int("pms", 100, "number of physical machines")
	ratio := flag.Int("ratio", 2, "VM:PM ratio")
	rounds := flag.Int("rounds", 240, "consolidation rounds (2 simulated minutes each)")
	seed := flag.Uint64("seed", 42, "master seed")
	flag.Parse()

	cfg := glapsim.Experiment{
		PMs:    *pms,
		Ratio:  *ratio,
		Rounds: *rounds,
		Seed:   *seed,
		Policy: glapsim.PolicyGLAP,
	}
	res, err := glapsim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	last, _ := res.Series.Last()
	fmt.Printf("GLAP quickstart — %d PMs, %d VMs, %d rounds\n", cfg.PMs, cfg.PMs*cfg.Ratio, cfg.Rounds)
	fmt.Printf("  pre-training consensus round:      %d (first with identical Q-tables; -1: none)\n", res.Pretrain.ConsensusRound)
	fmt.Printf("  active PMs at end:                 %d (BFD oracle: %d)\n", last.ActivePMs, res.BFDBaseline)
	fmt.Printf("  overloaded PMs at end:             %d\n", last.OverloadedPMs)
	fmt.Printf("  total migrations:                  %d\n", last.Migrations)
	fmt.Printf("  migration energy overhead:         %.1f kJ\n", last.MigrationEnergyJ/1000)
	fmt.Printf("  SLAVO=%.6f  SLALM=%.6f  SLAV=%.8f\n",
		res.Series.SLAVO, res.Series.SLALM, res.Series.SLAV)
}
