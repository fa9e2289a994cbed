package glap_test

import (
	"fmt"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/metrics"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

// GLAP in the paper's continuous deployment (Section IV-B): the two-phase
// learning protocol re-runs every 100 rounds while consolidation keeps
// acting on the previous Q-values, and the VM population churns (arrivals
// and departures), the condition under which periodic re-learning pays off.
// Each re-learning cycle starts from tables aggregation left sharing
// copy-on-write backings, so under -race this run checks that their first
// writes detach without racing.
func ExampleInstallContinuous() {
	const pms, ratio, rounds, relearn, churn, seed = 30, 3, 200, 100, 0.3, 21
	vms := pms * ratio
	set, err := trace.Generate(trace.DefaultGenConfig(vms, rounds, seed))
	if err != nil {
		fmt.Println(err)
		return
	}
	cl, err := dc.New(dc.Config{PMs: pms, Workload: set})
	if err != nil {
		fmt.Println(err)
		return
	}
	// Churn: a fraction of VMs arrives mid-run and may depart early.
	rng := sim.NewRNG(seed)
	churned := 0
	for _, vm := range cl.VMs {
		if !rng.Bernoulli(churn) {
			continue
		}
		arrive := 1 + rng.Intn(rounds/2)
		depart := -1
		if rng.Bool() {
			depart = arrive + 1 + rng.Intn(rounds-arrive)
		}
		if err := cl.SetLifecycle(vm.ID, arrive, depart); err != nil {
			fmt.Println(err)
			return
		}
		churned++
	}
	cl.PlaceRandom(rng.Derive(2).Intn)

	e := sim.NewEngine(pms, seed)
	b, err := policy.Bind(e, cl)
	if err != nil {
		fmt.Println(err)
		return
	}
	cfg := glap.Config{LearnRounds: 60, AggRounds: 30}
	if _, err := glap.InstallContinuous(e, b, cfg, relearn); err != nil {
		fmt.Println(err)
		return
	}
	series := metrics.Attach(e, cl, 0)
	e.RunRounds(rounds)
	series.Finalize(cl)

	fmt.Printf("continuous GLAP — %d PMs, %d VMs (%d churned), %d rounds, re-learning every %d\n\n",
		pms, vms, churned, rounds, relearn)
	fmt.Println("round  active_pms  overloaded  cum_migrations")
	for i, s := range series.Samples {
		if (i+1)%40 == 0 {
			fmt.Printf("%5d  %10d  %10d  %14d\n", s.Round, s.ActivePMs, s.OverloadedPMs, s.Migrations)
		}
	}
	fmt.Printf("\nfinal: present VMs=%d active PMs=%d  SLAV=%.3g  energy=%.1f kWh\n",
		cl.PresentVMs(), cl.ActivePMs(), series.SLAV, metrics.TotalEnergyKWh(cl))
	// Output:
	// continuous GLAP — 30 PMs, 90 VMs (27 churned), 200 rounds, re-learning every 100
	//
	// round  active_pms  overloaded  cum_migrations
	//    39          30           0               0
	//    79          30           0               0
	//   119           7           0             117
	//   159           6           0             140
	//   199           6           0             149
	//
	// final: present VMs=73 active PMs=6  SLAV=1.73e-09  energy=12.1 kWh
}
