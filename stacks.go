package glapsim

import (
	"github.com/glap-sim/glap/internal/baselines/bfd"
	"github.com/glap-sim/glap/internal/baselines/ecocloud"
	"github.com/glap-sim/glap/internal/baselines/grmp"
	"github.com/glap-sim/glap/internal/baselines/pabfd"
	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/metrics"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/topology"
	"github.com/glap-sim/glap/internal/trace"
)

// This file assembles every run the facade makes, in three steps: pretrain
// turns an experiment into GLAP's shared Q store, prepareStack switches on
// the policy to build the cluster, engine and protocol stack, and
// (*stack).run plays the rounds. play (sweep.go) calls these three for Run
// and for every sweep, so two runs a sweep pairs differ only in their
// Experiment and in what their install hook adds to the prepared stack.
// It is the only facade file that imports the baseline packages.

// needs reports what policy p's stack needs around its build: overlay, the
// Cyclon peer-sampling overlay the distributed protocols draw peers from;
// pretrains, GLAP pre-training. ok is false for an unknown policy. Validate,
// Pretrains and prepareStack all read this one switch.
func (p Policy) needs() (overlay, pretrains, ok bool) {
	switch p {
	case PolicyGLAP, PolicyGLAPAsync:
		return true, true, true
	case PolicyGRMP, PolicyEcoCloud:
		return true, false, true
	case PolicyPABFD, PolicyNone:
		return false, false, true
	}
	return false, false, false
}

// Pretrains reports whether p's stack runs GLAP pre-training, and so whether
// Run fills Result.Pretrain for an experiment without PretrainedTables.
func (p Policy) Pretrains() bool {
	_, pretrains, _ := p.needs()
	return pretrains
}

// pretrain runs GLAP pre-training for x on its own identically placed
// cluster, over the experiment's Cyclon overlay sizes and Workers, and
// collapses the outcome into the Q store every node consolidates with. The
// comparison run then replays the same trace window as the baselines (the
// paper executes "700 more rounds to calculate Q-values beforehand").
func pretrain(x Experiment, w *trace.Set) (*glap.PretrainResult, *glap.NodeTables, error) {
	c, err := buildCluster(x, w)
	if err != nil {
		return nil, nil, err
	}
	res, err := glap.Pretrain(x.GLAP, c, deriveSeed(x.Seed, seedPretrain), glap.PretrainOptions{
		CyclonShuffleLen: x.CyclonShuffleLen, Workers: x.Workers,
	})
	if err != nil {
		return nil, nil, err
	}
	shared, err := glap.SharedTables(res)
	if err != nil {
		return nil, nil, err
	}
	return res, shared, nil
}

// stack is one run: a cluster, a fresh engine bound to it, the policy's
// protocols registered on the engine and, once run has played it, the
// recorded series.
type stack struct {
	x    Experiment
	c    *dc.Cluster
	e    *sim.Engine
	b    *policy.Binding
	tree *topology.Tree // nil when the topology model is off
	// shared is the pre-trained Q store the GLAP stacks consolidate with.
	// sync and async are the consolidation protocols of the glap and
	// glap-async stacks, tr is glap-async's transport; each is nil under
	// every other policy. The sweep's outcome records the async counters;
	// the crash scenario and the no-aggregation ablation swap per-node
	// tables in.
	shared  *glap.NodeTables
	sync    *glap.ConsolidateProtocol
	async   *glap.AsyncConsolidateProtocol
	tr      *sim.Transport
	pre     *glap.PretrainResult // nil unless the policy pre-trains
	series  *metrics.Series
	network *metrics.NetworkSeries
}

// prepareStack builds an identically placed cluster for the experiment's
// seed, a fresh engine, the cluster binding and the topology model, registers
// the Cyclon overlay for the four distributed policies, and installs the
// policy's stack over shared, the Q store GLAP consolidates with. x must be
// valid.
func prepareStack(x Experiment, w *trace.Set, shared *glap.NodeTables) (*stack, error) {
	overlay, _, _ := x.Policy.needs()
	c, err := buildCluster(x, w)
	if err != nil {
		return nil, err
	}
	e := sim.NewEngine(x.PMs, deriveSeed(x.Seed, seedEngine))
	e.Workers = x.Workers
	b, err := policy.Bind(e, c)
	if err != nil {
		return nil, err
	}
	tree, err := x.tree()
	if err != nil {
		return nil, err
	}
	s := &stack{x: x, c: c, e: e, b: b, tree: tree, shared: shared}
	if overlay {
		e.Register(cyclon.New(0, x.CyclonShuffleLen))
	}
	tables := func(*sim.Engine, *sim.Node) *glap.NodeTables { return shared }
	switch x.Policy {
	case PolicyGLAP:
		// Algorithm 3 over the simulator's synchronous push-pull shortcut.
		s.sync = &glap.ConsolidateProtocol{B: b, Tables: tables, CurrentDemandOnly: x.GLAP.CurrentDemandOnly,
			Decisions: glap.Decisions{Split: x.decisionSplit()}}
		if x.TopologyAware {
			s.sync.Select = glap.LocalitySelector(tree)
			s.sync.Topo = tree
		}
		e.Register(s.sync)
	case PolicyGLAPAsync:
		s.installAsync(tables)
	case PolicyGRMP:
		e.Register(grmp.New(b))
	case PolicyEcoCloud:
		e.Register(ecocloud.New(b))
	case PolicyPABFD:
		pabfd.Install(e, b)
	}
	return s, nil
}

// installAsync installs the message-passing GLAP stack: the same Algorithm-3
// decision core, carried by a sim.Transport with the experiment's latency
// and loss (Experiment.Net).
func (s *stack) installAsync(tables func(*sim.Engine, *sim.Node) *glap.NodeTables) {
	x := s.x
	lat := x.Net.Latency
	if lat <= 0 {
		lat = 1
	}
	latFn := sim.ConstantLatency(lat)
	maxLat := lat
	if x.Net.TopoLatency {
		tree := s.tree
		latFn = func(from, to int) int64 { return lat * tree.LatencyFactor(from, to) }
		maxLat = 3 * lat // cross-pod paths pay the full multiplier
	}
	s.tr = sim.NewTransport(s.e, latFn)
	s.tr.DropProb = x.Net.DropProb
	s.async = &glap.AsyncConsolidateProtocol{
		B:                 s.b,
		Tr:                s.tr,
		Tables:            tables,
		CurrentDemandOnly: x.GLAP.CurrentDemandOnly,
		// Each request stage covers a full offer round-trip even on slow
		// links: two rounds plus four of the longest one-way delays.
		OfferTimeout: 2*s.e.RoundPeriod + 4*maxLat,
		Decisions:    glap.Decisions{Split: x.decisionSplit()},
	}
	if x.TopologyAware {
		// Locality-aware peer selection only: prefer same-rack, then
		// same-pod exchange partners. The rack-occupancy direction rule is
		// the sync protocol's alone.
		s.async.Select = glap.LocalitySelector(s.tree)
	}
	s.tr.Handle(s.async)
	s.e.Register(s.async)
}

// decisionSplit is the round at which the GLAP stacks' decision histograms
// (glap.Decisions) switch from the early to the late bucket: the end of the
// first quarter of the run, round 180 of the paper's 720-round day, by which
// Algorithm 3 has done most of its packing.
func (x *Experiment) decisionSplit() int { return x.Rounds / 4 }

// decisions returns a copy of the GLAP stacks' decision histogram, nil under
// every other policy.
func (s *stack) decisions() *glap.Decisions {
	var d glap.Decisions
	switch {
	case s.sync != nil:
		d = s.sync.Decisions
	case s.async != nil:
		d = s.async.Decisions
	default:
		return nil
	}
	return &d
}

// run is the one run tail: it attaches the metrics (and the switch
// accounting when the topology model is on), plays x.Rounds rounds, runs
// glap-async's event queue dry so in-flight messages, request timeouts and
// reservation holds settle, and finalises the series.
func (s *stack) run() {
	s.series = metrics.Attach(s.e, s.c, 0)
	if s.tree != nil {
		s.network = metrics.AttachNetwork(s.e, s.c, s.tree, topology.DefaultSwitchSpec)
	}
	s.e.RunRounds(s.x.Rounds)
	if s.async != nil {
		s.e.RunEvents(-1)
	}
	s.series.Finalize(s.c)
}

// bfdOracle computes the centralized Best-Fit-Decreasing packing of the
// final demand — the Figure 6 oracle baseline reported in every Result.
func bfdOracle(c *dc.Cluster) int {
	return bfd.MinActivePMs(c, 1e-6)
}
