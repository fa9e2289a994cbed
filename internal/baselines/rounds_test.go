package baselines_test

import (
	"testing"

	"github.com/glap-sim/glap/internal/baselines/ecocloud"
	"github.com/glap-sim/glap/internal/baselines/grmp"
	"github.com/glap-sim/glap/internal/baselines/pabfd"
	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

// warmedRound builds a 240-PM, ratio-3 cluster under one baseline and
// returns one round of that baseline outside RunRounds (which restarts at
// round 0 on every call), with its cluster. Each call first moves every
// VM's current demand to the trace's next round, so every call finds hosts
// to shed and to evacuate. It sets the demand directly rather than through
// AdvanceRound, whose fork-join costs an allocation of its own: the gate
// below measures the baseline's pass alone. Before returning, 40 engine
// rounds and then a trace day of calls warm the cluster, so the
// controller's scratch and the cluster's hosted-VM lists have reached
// their working size.
func warmedRound(tb testing.TB, name string) (pass func(), cl *dc.Cluster) {
	tb.Helper()
	const pms, warm, day = 240, 40, 120
	set, err := trace.Generate(trace.DefaultGenConfig(3*pms, day, 5))
	if err != nil {
		tb.Fatal(err)
	}
	cl, err = dc.New(dc.Config{PMs: pms, Workload: set})
	if err != nil {
		tb.Fatal(err)
	}
	cl.PlaceRandom(sim.NewRNG(7).Intn)
	e := sim.NewEngine(pms, 2)
	b, err := policy.Bind(e, cl)
	if err != nil {
		tb.Fatal(err)
	}
	e.Register(cyclon.New(20, 8))
	round := warm
	next := func() int {
		round++
		for _, vm := range cl.VMs {
			s := set.At(vm.ID, round)
			vm.SetCurDemand(dc.Vec{s.CPU, s.Mem})
		}
		return round
	}
	switch name {
	case grmp.ProtocolName:
		pass = protocolPass(e, grmp.New(b), next)
	case ecocloud.ProtocolName:
		pass = protocolPass(e, ecocloud.New(b), next)
	default:
		ctrl := pabfd.Install(e, b)
		pass = func() { ctrl.Step(next()) }
	}
	e.RunRounds(warm)
	for i := 0; i < day; i++ {
		pass()
	}
	return pass, cl
}

// protocolPass registers proto and returns one round of it: the next
// round's demand, then a Round for every live node.
func protocolPass(e *sim.Engine, proto sim.Protocol, next func() int) func() {
	e.Register(proto)
	return func() {
		r := next()
		for _, n := range e.Nodes() {
			if n.Up() {
				proto.Round(e, n, r)
			}
		}
	}
}

var baselineNames = []string{grmp.ProtocolName, ecocloud.ProtocolName, "pabfd"}

// TestBaselineRoundsZeroAlloc pins the baselines' round paths: once the
// controller's scratch has grown, a GRMP round pass, an EcoCloud round pass
// and a PABFD Step allocate nothing — no VM list copies, no reflective
// sorts, no maps, no sorted window copies.
func TestBaselineRoundsZeroAlloc(t *testing.T) {
	for _, name := range baselineNames {
		t.Run(name, func(t *testing.T) {
			pass, cl := warmedRound(t, name)
			// 0.3 is EcoCloud's lower threshold T1.
			if name == ecocloud.ProtocolName && !hasUnderloaded(cl, 0.3) {
				t.Fatal("no active PM below T1: the pass never reaches evacuate")
			}
			if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
				t.Fatalf("%s round pass allocates: %.1f allocs/run, want 0", name, allocs)
			}
		})
	}
}

// hasUnderloaded reports whether some powered PM hosts VMs below CPU
// utilisation t1, so an EcoCloud pass tries to evacuate it.
func hasUnderloaded(cl *dc.Cluster, t1 float64) bool {
	for _, pm := range cl.PMs {
		if pm.On() && pm.NumVMs() > 0 && cl.CurUtil(pm)[dc.CPU] < t1 {
			return true
		}
	}
	return false
}

// BenchmarkBaselineRound measures one round pass of each baseline on the
// warmed 240 × 3 cluster; -benchmem shows the zero allocs/op the test
// above requires.
func BenchmarkBaselineRound(b *testing.B) {
	for _, name := range baselineNames {
		b.Run(name, func(b *testing.B) {
			pass, _ := warmedRound(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
		})
	}
}
