package glapsim

import (
	"github.com/glap-sim/glap/internal/baselines/bfd"
	"github.com/glap-sim/glap/internal/baselines/ecocloud"
	"github.com/glap-sim/glap/internal/baselines/grmp"
	"github.com/glap-sim/glap/internal/baselines/pabfd"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/sim"
)

// This file holds the built-in policy-stack registrations. It is the only
// facade file that imports the baseline packages: glapsim.go and robust.go
// reach every policy through the registry.

func init() {
	RegisterPolicy(PolicyGLAP, PolicySpec{Overlay: true, Pretrain: true, Build: buildGLAP})
	RegisterPolicy(PolicyGLAPAsync, PolicySpec{Overlay: true, Pretrain: true, Drain: true, Build: buildGLAPAsync})
	RegisterPolicy(PolicyGRMP, PolicySpec{Overlay: true, Build: buildGRMP})
	RegisterPolicy(PolicyEcoCloud, PolicySpec{Overlay: true, Build: buildEcoCloud})
	RegisterPolicy(PolicyPABFD, PolicySpec{Build: buildPABFD})
	RegisterPolicy(PolicyNone, PolicySpec{Build: buildNone})
}

// buildGLAP installs the cycle-driven GLAP consolidation stack (Algorithm 3
// over the simulator's synchronous push-pull shortcut).
func buildGLAP(ctx *StackContext) error {
	shared := ctx.Tables
	cons := &glap.ConsolidateProtocol{
		B:                 ctx.B,
		Tables:            func(e *sim.Engine, n *sim.Node) *glap.NodeTables { return shared },
		CurrentDemandOnly: ctx.X.GLAP.CurrentDemandOnly,
	}
	if ctx.X.TopologyAware && ctx.Tree != nil {
		cons.Select = glap.LocalitySelector(ctx.Tree)
		cons.Topo = ctx.Tree
	}
	ctx.E.Register(cons)
	return nil
}

// buildGLAPAsync installs the message-passing GLAP consolidation stack: the
// same Algorithm-3 decision core, carried by a sim.Transport with the
// experiment's latency and loss (Experiment.Net). The one-registration
// existence proof that a new transport does not fork the facade.
func buildGLAPAsync(ctx *StackContext) error {
	x := ctx.X
	lat := x.Net.Latency
	if lat <= 0 {
		lat = 1
	}
	latFn := sim.ConstantLatency(lat)
	maxLat := lat
	if x.Net.TopoLatency && ctx.Tree != nil {
		tree := ctx.Tree
		latFn = func(from, to int) int64 { return lat * tree.LatencyFactor(from, to) }
		maxLat = 3 * lat // cross-pod paths pay the full multiplier
	}
	tr := sim.NewTransport(ctx.E, latFn)
	tr.DropProb = x.Net.DropProb
	timeout := x.Net.OfferTimeout
	if timeout == 0 {
		// Cover a full offer round-trip even on slow links.
		timeout = 2*ctx.E.RoundPeriod + 4*maxLat
	}
	shared := ctx.Tables
	cons := &glap.AsyncConsolidateProtocol{
		B:                 ctx.B,
		Tr:                tr,
		Tables:            func(e *sim.Engine, n *sim.Node) *glap.NodeTables { return shared },
		CurrentDemandOnly: x.GLAP.CurrentDemandOnly,
		OfferTimeout:      timeout,
	}
	if x.TopologyAware && ctx.Tree != nil {
		// Locality-aware peer selection: prefer same-rack, then same-pod
		// exchange partners, so consolidation drains racks and their
		// switches can sleep — the same policy the sync stack applies.
		cons.Select = glap.LocalitySelector(ctx.Tree)
	}
	tr.Handle(cons)
	ctx.E.Register(cons)
	ctx.Artifacts.AsyncConsolidate = cons
	ctx.Artifacts.Transport = tr
	return nil
}

// buildGRMP installs the GRMP baseline.
func buildGRMP(ctx *StackContext) error {
	ctx.E.Register(grmp.New(ctx.B))
	return nil
}

// buildEcoCloud installs the EcoCloud baseline.
func buildEcoCloud(ctx *StackContext) error {
	ctx.E.Register(ecocloud.New(ctx.B))
	return nil
}

// buildPABFD installs the centralized PABFD baseline; no overlay.
func buildPABFD(ctx *StackContext) error {
	pabfd.Install(ctx.E, ctx.B)
	return nil
}

// buildNone replays the workload with no consolidation.
func buildNone(ctx *StackContext) error { return nil }

// bfdOracle computes the centralized Best-Fit-Decreasing packing of the
// final demand — the Figure 6 oracle baseline reported in every Result.
func bfdOracle(c *dc.Cluster) int {
	return bfd.MinActivePMs(c, 1e-6)
}
