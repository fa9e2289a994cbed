package glapsim

// Tests and benchmarks for the two future-work extensions the paper's
// conclusion announces: evaluation under bursty workload patterns, and
// network-topology awareness that lets emptied racks switch off their
// network switches.

import (
	"testing"

	"github.com/glap-sim/glap/internal/stats"
	"github.com/glap-sim/glap/internal/trace"
)

// withBurstyWorkload gives x the workload it would generate itself, but with
// an archetype mix dominated by bursty and spiky VMs — the "bursty workload
// patterns" regime of the paper's future work.
func withBurstyWorkload(tb testing.TB, x Experiment) Experiment {
	tb.Helper()
	gen := trace.DefaultGenConfig(x.PMs*x.Ratio, x.Rounds, deriveSeed(x.Seed, seedTrace))
	gen.Mix = map[trace.Archetype]float64{
		trace.Stable: 0.05, trace.Diurnal: 0.10, trace.Periodic: 0.05,
		trace.Bursty: 0.50, trace.Spiky: 0.30,
	}
	w, err := trace.GenerateStreaming(gen)
	if err != nil {
		tb.Fatal(err)
	}
	x.Workload = w
	return x
}

func TestTopologyExperimentEndToEnd(t *testing.T) {
	x := smallExperiment(PolicyGLAP)
	x.PMs = 24
	x.RackSize = 4
	x.RacksPerPod = 3
	x.TopologyAware = true
	res, err := Run(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Network == nil {
		t.Fatal("topology run must report network series")
	}
	if len(res.Network.SwitchPowerW) != x.Rounds {
		t.Fatalf("network series has %d samples", len(res.Network.SwitchPowerW))
	}
	if res.Network.EnergyJ <= 0 {
		t.Fatal("network energy not accumulated")
	}
	if res.Network.MeanPowerW() <= 0 {
		t.Fatal("mean network power not positive")
	}
	if err := res.Cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyValidation(t *testing.T) {
	x := smallExperiment(PolicyGLAP)
	x.TopologyAware = true // without RackSize
	if err := x.Validate(); err == nil {
		t.Fatal("TopologyAware without RackSize should fail validation")
	}
	x.RackSize = -1
	if err := x.Validate(); err == nil {
		t.Fatal("negative RackSize should fail validation")
	}
}

func TestTopologyAwareReducesSwitchEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative run in -short mode")
	}
	base := smallExperiment(PolicyGLAP)
	base.PMs = 36
	base.Ratio = 3
	base.Rounds = 60
	base.RackSize = 6
	base.RacksPerPod = 3

	uniform := base
	aware := base
	aware.TopologyAware = true

	ru, err := Run(uniform)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Run(aware)
	if err != nil {
		t.Fatal(err)
	}
	// Whole-run energy includes the pre-consolidation transient, so the
	// meaningful comparison is the steady state: mean active edge switches
	// over the final quarter of the run. The locality extension must not
	// leave more racks powered than uniform gossip there.
	tail := func(xs []int) float64 {
		q := xs[3*len(xs)/4:]
		sum := 0.0
		for _, x := range q {
			sum += float64(x)
		}
		return sum / float64(len(q))
	}
	eu, ea := tail(ru.Network.ActiveEdge), tail(ra.Network.ActiveEdge)
	if ea > eu {
		t.Fatalf("topology-aware keeps %.1f edge switches up vs uniform %.1f", ea, eu)
	}
}

func TestBurstyWorkloadExperiment(t *testing.T) {
	x := withBurstyWorkload(t, smallExperiment(PolicyGLAP))
	res, err := Run(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The workload override must actually be in force: the cluster's
	// workload should be dominated by bursty/spiky VMs.
	w := res.Cluster.Workload()
	bursty := 0
	for vm := 0; vm < w.NumVMs(); vm++ {
		a := w.ArchetypeOf(vm)
		if a == trace.Bursty || a == trace.Spiky {
			bursty++
		}
	}
	if frac := float64(bursty) / float64(w.NumVMs()); frac < 0.6 {
		t.Fatalf("bursty+spiky fraction %g, want >= 0.6", frac)
	}
}

// BenchmarkExtensionTopologyAware compares uniform and locality-aware GLAP
// under the three-tier network model, reporting switch and migration energy.
func BenchmarkExtensionTopologyAware(b *testing.B) {
	for _, aware := range []bool{false, true} {
		aware := aware
		name := "uniform"
		if aware {
			name = "locality-aware"
		}
		b.Run(name, func(b *testing.B) {
			var switchKJ, migKJ, edges float64
			for i := 0; i < b.N; i++ {
				x := benchExperiment(PolicyGLAP, uint64(i+1))
				x.RackSize = 8
				x.RacksPerPod = 3
				x.TopologyAware = aware
				res, err := Run(x)
				if err != nil {
					b.Fatal(err)
				}
				switchKJ = res.Network.EnergyJ / 1000
				last, _ := res.Series.Last()
				migKJ = last.MigrationEnergyJ / 1000
				sum := 0.0
				for _, e := range res.Network.ActiveEdge {
					sum += float64(e)
				}
				edges = sum / float64(len(res.Network.ActiveEdge))
			}
			b.ReportMetric(switchKJ, "switch-kJ")
			b.ReportMetric(migKJ, "migration-kJ")
			b.ReportMetric(edges, "edge-switches")
		})
	}
}

// BenchmarkExtensionBurstyWorkload evaluates GLAP against GRMP under the
// bursty-dominated workload regime of the paper's future work, reporting the
// overload rate each sustains.
func BenchmarkExtensionBurstyWorkload(b *testing.B) {
	for _, p := range []Policy{PolicyGLAP, PolicyGRMP, PolicyEcoCloud} {
		p := p
		b.Run(string(p), func(b *testing.B) {
			var over float64
			for i := 0; i < b.N; i++ {
				x := withBurstyWorkload(b, benchExperiment(p, uint64(i+1)))
				res, err := Run(x)
				if err != nil {
					b.Fatal(err)
				}
				over = stats.Mean(res.Series.OverloadedPerRound())
			}
			b.ReportMetric(over, "overloaded-PMs/round")
		})
	}
}
