package glapsim_test

import (
	"fmt"
	"os"
	"text/tabwriter"

	glapsim "github.com/glap-sim/glap"
	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/stats"
)

// The smallest end-to-end GLAP run: a 30-PM cluster with a 2:1 VM:PM ratio
// driven by a synthetic Google-cluster-style workload for 30 rounds (one
// simulated hour), printing the consolidation outcome and SLA metrics.
func ExampleRun() {
	x := glapsim.Experiment{PMs: 30, Ratio: 2, Rounds: 30, Seed: 42, Policy: glapsim.PolicyGLAP}
	res, err := glapsim.Run(x)
	if err != nil {
		fmt.Println(err)
		return
	}

	last, _ := res.Series.Last()
	fmt.Printf("GLAP quickstart — %d PMs, %d VMs, %d rounds\n", x.PMs, x.PMs*x.Ratio, x.Rounds)
	fmt.Printf("  pre-training consensus round:      %d (first with identical Q-tables; -1: none)\n", res.Pretrain.ConsensusRound)
	fmt.Printf("  active PMs at end:                 %d (BFD oracle: %d)\n", last.ActivePMs, res.BFDBaseline)
	fmt.Printf("  overloaded PMs at end:             %d\n", last.OverloadedPMs)
	fmt.Printf("  total migrations:                  %d\n", last.Migrations)
	fmt.Printf("  migration energy overhead:         %.1f kJ\n", last.MigrationEnergyJ/1000)
	fmt.Printf("  SLAVO=%.6f  SLALM=%.6f  SLAV=%.8f\n",
		res.Series.SLAVO, res.Series.SLALM, res.Series.SLAV)
	// Output:
	// GLAP quickstart — 30 PMs, 60 VMs, 30 rounds
	//   pre-training consensus round:      570 (first with identical Q-tables; -1: none)
	//   active PMs at end:                 5 (BFD oracle: 4)
	//   overloaded PMs at end:             0
	//   total migrations:                  58
	//   migration energy overhead:         0.1 kJ
	//   SLAVO=0.001111  SLALM=0.000003  SLAV=0.00000000
}

// The four consolidation policies of the paper's evaluation — GLAP,
// EcoCloud, GRMP and PABFD — on one identically configured cluster: the
// headline metrics of Figures 6-8 and Table I side by side.
func ExampleRun_comparison() {
	const pms, ratio, rounds = 30, 2, 30
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Printf("policy comparison — %d PMs, %d VMs, %d rounds\n\n", pms, pms*ratio, rounds)
	fmt.Fprintln(w, "policy\tactive\toverl.(mean)\tmigrations\tenergy(kJ)\tSLAV")
	for _, p := range glapsim.Policies {
		res, err := glapsim.Run(glapsim.Experiment{PMs: pms, Ratio: ratio, Rounds: rounds, Seed: 7, Policy: p})
		if err != nil {
			fmt.Println(p, err)
			return
		}
		last, _ := res.Series.Last()
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%d\t%.1f\t%.2e\n",
			p, last.ActivePMs, stats.Mean(res.Series.OverloadedPerRound()), last.Migrations,
			last.MigrationEnergyJ/1000, res.Series.SLAV)
	}
	w.Flush()
	// Output:
	// policy comparison — 30 PMs, 60 VMs, 30 rounds
	//
	// policy    active  overl.(mean)  migrations  energy(kJ)  SLAV
	// glap      4       0.0           67          0.1         0.00e+00
	// ecocloud  5       0.0           73          0.1         3.38e-09
	// grmp      3       0.3           85          0.1         4.31e-08
	// pabfd     3       0.2           103         0.1         1.94e-08
}

// The migration energy accounting of Figure 10 (Equation 3, after Strunk &
// Dargie): one GLAP run with per-migration logging, its energy overhead
// broken down by migration duration, beside the servers' own consumption.
// Duration (memory footprint), not just the count of migrations, sets the
// overhead (Section V-C-6).
func ExampleRun_energy() {
	x := glapsim.Experiment{PMs: 30, Ratio: 2, Rounds: 30, Seed: 9, Policy: glapsim.PolicyGLAP, LogMigrations: true}
	res, err := glapsim.Run(x)
	if err != nil {
		fmt.Println(err)
		return
	}

	mlog := res.Cluster.MigrationLog()
	fmt.Printf("energy accounting — %d PMs, %d VMs, %d rounds, %d migrations\n\n",
		x.PMs, x.PMs*x.Ratio, x.Rounds, len(mlog))
	var durations, energies []float64
	var total float64
	perRound := make([]float64, x.Rounds)
	for _, m := range mlog {
		durations = append(durations, m.Seconds)
		energies = append(energies, m.EnergyJ)
		total += m.EnergyJ
		perRound[m.Round] += m.EnergyJ
	}
	ds, es := stats.Summarize(durations), stats.Summarize(energies)
	fmt.Printf("migration duration (s):   median=%.3f p10=%.3f p90=%.3f\n", ds.Median, ds.P10, ds.P90)
	fmt.Printf("per-migration energy (J): median=%.2f p10=%.2f p90=%.2f\n", es.Median, es.P10, es.P90)
	fmt.Printf("total migration overhead: %.1f kJ\n", total/1000)

	var baseline float64
	for _, pm := range res.Cluster.PMs {
		baseline += pm.EnergyJ()
	}
	fmt.Printf("baseline (servers) energy: %.1f kJ\n", baseline/1000)
	fmt.Printf("overhead share:            %.4f%%\n", 100*total/baseline)

	// The busiest round; equal energies go to the earliest.
	busiest := 0
	for r, e := range perRound {
		if e > perRound[busiest] {
			busiest = r
		}
	}
	fmt.Println("\nbusiest migration rounds:")
	fmt.Printf("  round %d: %.1f J across migrations\n", busiest, perRound[busiest])
	// Output:
	// energy accounting — 30 PMs, 60 VMs, 30 rounds, 56 migrations
	//
	// migration duration (s):   median=0.128 p10=0.061 p90=0.192
	// per-migration energy (J): median=1.07 p10=0.51 p90=1.61
	// total migration overhead: 0.1 kJ
	// baseline (servers) energy: 2569.4 kJ
	// overhead share:            0.0024%
	//
	// busiest migration rounds:
	//   round 0: 36.1 J across migrations
}

// The paper's future-work extension: GLAP aware of the data center network,
// so that emptied racks let their switches sleep. GLAP runs twice on the
// same cluster, with uniform gossip partners and with locality-aware ones
// (same rack, then same pod, then anywhere).
func ExampleRun_topology() {
	base := glapsim.Experiment{
		PMs: 32, Ratio: 3, Rounds: 40, Seed: 17,
		Policy: glapsim.PolicyGLAP, RackSize: 8, RacksPerPod: 2,
	}
	fmt.Printf("topology-aware GLAP — %d PMs in %d-PM racks, %d VMs, %d rounds\n\n",
		base.PMs, base.RackSize, base.PMs*base.Ratio, base.Rounds)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\tactive\toverl.(mean)\tmigr.\tmigr. kJ\tswitch kJ\tedge switches (mean)")
	for _, aware := range []bool{false, true} {
		x := base
		x.TopologyAware = aware
		res, err := glapsim.Run(x)
		if err != nil {
			fmt.Println(err)
			return
		}
		name := "uniform gossip"
		if aware {
			name = "locality-aware"
		}
		last, _ := res.Series.Last()
		edges := make([]float64, len(res.Network.ActiveEdge))
		for i, e := range res.Network.ActiveEdge {
			edges[i] = float64(e)
		}
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%d\t%.2f\t%.1f\t%.1f\n",
			name, last.ActivePMs, stats.Mean(res.Series.OverloadedPerRound()), last.Migrations,
			last.MigrationEnergyJ/1000, res.Network.EnergyJ/1000, stats.Mean(edges))
	}
	w.Flush()
	// Output:
	// topology-aware GLAP — 32 PMs in 8-PM racks, 96 VMs, 40 rounds
	//
	// variant         active  overl.(mean)  migr.  migr. kJ  switch kJ  edge switches (mean)
	// uniform gossip  7       0.1           95     0.37      8640.0     4.0
	// locality-aware  7       0.0           138    0.41      7272.0     2.1
}

// The shape of Figure 5: how the cosine similarity of the PMs' Q-tables
// evolves through pre-training — well below 1 through the local learning
// phase (WOG), then 1 once the aggregation gossip (WG) has run, which is
// the paper's evidence that aggregation gives every PM the same Q-values.
func ExampleRunConvergence() {
	const pms = 30
	res, err := glapsim.RunConvergence(pms, []int{2, 3, 4}, glap.Config{LearnRounds: 120, AggRounds: 60}, 5, 20)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("Q-value convergence, %d PMs (learning rounds 0-%d, aggregation after)\n\n",
		pms, res[0].AggStart-1)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "round\tphase\tratio2\tratio3\tratio4")
	for i, round := range res[0].Rounds {
		phase := "learning (WOG)"
		if round >= res[0].AggStart {
			phase = "aggregation (WG)"
		}
		fmt.Fprintf(w, "%d\t%s", round, phase)
		for _, r := range res {
			fmt.Fprintf(w, "\t%.4f", r.Cosine[i])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	// Output:
	// Q-value convergence, 30 PMs (learning rounds 0-119, aggregation after)
	//
	// round  phase             ratio2  ratio3  ratio4
	// 0      learning (WOG)    0.2973  0.3746  0.4706
	// 20     learning (WOG)    0.4103  0.5527  0.4810
	// 40     learning (WOG)    0.4772  0.5216  0.5805
	// 60     learning (WOG)    0.5105  0.5808  0.5768
	// 80     learning (WOG)    0.5320  0.5880  0.6019
	// 100    learning (WOG)    0.5124  0.5913  0.6409
	// 120    aggregation (WG)  0.7086  0.7395  0.7519
	// 140    aggregation (WG)  1.0000  1.0000  1.0000
	// 160    aggregation (WG)  1.0000  1.0000  1.0000
}
