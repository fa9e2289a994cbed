package main

import (
	"fmt"
	"strings"
	"time"

	glapsim "github.com/glap-sim/glap"
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
)

// The traced run re-assembles the stack glapsim.Run builds from the layers'
// exported constructors and times the calls into each layer from outside:
// protocols through a decorator, the hooks the layers register themselves
// (policy.Bind's AdvanceRound, pabfd.Install's Step, metrics.Attach's
// sampler) between marker hooks registered immediately before and after
// them. The decorator hides sim.ParallelRound, so the traced run executes
// every protocol sequentially; parallel speed-up is measured separately
// (glap.learn.par_speedup).

// layer indexes the per-layer accumulators; layerNames are the repo's
// packages (and, within glap, the protocol).
type layer int

const (
	lDCBuild layer = iota
	lDCAdvance
	lCyclon
	lLearn
	lAgg
	lConsolidate
	lAsync
	lGRMP
	lEcoCloud
	lPABFD
	lMetricsSample
	lMetricsFinalize
	lBFD
	numLayers
)

var layerNames = [numLayers]string{
	"dc.build", "dc.advance", "cyclon", "glap.learn", "glap.agg",
	"glap.consolidate", "glap.async", "grmp", "ecocloud", "pabfd.step",
	"metrics.sample", "metrics.finalize", "bfd.oracle",
}

// span is one node of the trace tree. Spans inside a round are aggregated to
// one per (round, layer): start and end are the first and last call's, busy
// is the summed time of the calls (they interleave with other layers', so
// busy < end − start in general). For every other span busy = end − start.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the root
	Name    string `json:"name"`
	Round   int    `json:"round"` // -1 outside a round
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	BusyNs  int64  `json:"busy_ns"`
	Calls   int64  `json:"calls"`
}

type layerAcc struct {
	first, last time.Time
	busy        time.Duration
	calls       int64
}

// tracer keeps the spans of one traced rep in memory.
type tracer struct {
	epoch   time.Time
	spans   []span
	current int // innermost open span; -1 when none

	round      [numLayers]layerAcc // the open round's accumulators
	roundStart time.Time
	pending    bool // round holds unflushed calls

	total   [numLayers]layerAcc // busy and calls over the whole rep
	stamp   time.Time           // set by marker hooks
	roundUs []float64           // wall of every completed round, µs
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), current: -1}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	now := time.Now()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.current, Name: name, Round: -1, StartNs: t.ns(now)})
	t.current = id
	t.roundStart = now
	return id
}

// end closes span id, first flushing calls made after the last round ended
// (event deliveries in the engine's closing drain).
func (t *tracer) end(id int) {
	if t.pending {
		t.endRound(-1)
	}
	s := &t.spans[id]
	s.EndNs = t.ns(time.Now())
	s.BusyNs = s.EndNs - s.StartNs
	t.current = s.Parent
}

// leaf times f as one call into layer l, outside any round.
func (t *tracer) leaf(l layer, f func()) {
	id := t.begin(layerNames[l])
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	t.spans[id].Calls = 1
	t.total[l].busy += d
	t.total[l].calls++
}

// add accounts [t0, now] to layer l in the open round; calls is 0 for work
// that is not one of the layer's counted calls (protocol Setup).
func (t *tracer) add(l layer, t0 time.Time, calls int64) {
	now := time.Now()
	a := &t.round[l]
	if a.busy == 0 && a.calls == 0 {
		a.first = t0
	}
	a.last = now
	a.busy += now.Sub(t0)
	a.calls += calls
	t.pending = true
}

// mark is the leading marker hook: it stamps the time the bracketed hook is
// about to start.
func (t *tracer) mark(*sim.Engine, int) { t.stamp = time.Now() }

// sinceMark is the trailing marker hook: the time since the last stamp went
// to layer l. It stamps again, so hooks can be bracketed back to back.
func (t *tracer) sinceMark(l layer) {
	t.add(l, t.stamp, 1)
	t.stamp = t.round[l].last
}

// endRound closes the open round: one span for the round, one child per
// layer that ran in it.
func (t *tracer) endRound(r int) {
	now := time.Now()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: t.current, Name: "sim.round", Round: r,
		StartNs: t.ns(t.roundStart), EndNs: t.ns(now), BusyNs: now.Sub(t.roundStart).Nanoseconds(),
	})
	for l := layer(0); l < numLayers; l++ {
		a := &t.round[l]
		if a.busy == 0 && a.calls == 0 {
			continue
		}
		t.spans = append(t.spans, span{
			ID: len(t.spans), Parent: id, Name: layerNames[l], Round: r,
			StartNs: t.ns(a.first), EndNs: t.ns(a.last), BusyNs: a.busy.Nanoseconds(), Calls: a.calls,
		})
		t.total[l].busy += a.busy
		t.total[l].calls += a.calls
		*a = layerAcc{}
	}
	if r >= 0 {
		t.roundUs = append(t.roundUs, float64(now.Sub(t.roundStart).Nanoseconds())/1e3)
	}
	t.roundStart = now
	t.pending = false
}

// selfTimes is every span's self time, by span ID: its duration minus the
// part of it its direct children cover (their busy time).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.BusyNs
		}
	}
	return self
}

// simSelfNs sums the self time of every sim.* span — the engine's own cost:
// shuffles, the node loops, the event queue, timeouts, and the tracer's
// clock reads.
func simSelfNs(spans []span, self []int64) int64 {
	var total int64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "sim.") {
			total += self[s.ID]
		}
	}
	return total
}

// tracedProto times the calls into one protocol. Embedding the interface
// forwards Name and leaves the optional engine contracts (ParallelRound,
// PairRound, QuiescentRound) undeclared, so the engine takes the sequential
// per-node path.
type tracedProto struct {
	sim.Protocol
	t *tracer
	l layer
}

func (p tracedProto) Setup(e *sim.Engine, n *sim.Node) any {
	t0 := time.Now()
	st := p.Protocol.Setup(e, n)
	p.t.add(p.l, t0, 0)
	return st
}

func (p tracedProto) Round(e *sim.Engine, n *sim.Node, round int) {
	t0 := time.Now()
	p.Protocol.Round(e, n, round)
	p.t.add(p.l, t0, 1)
}

func (t *tracer) wrap(p sim.Protocol, l layer) sim.Protocol { return tracedProto{p, t, l} }

// tracedHandler times message deliveries into the async protocol.
type tracedHandler struct {
	sim.Handler
	t *tracer
	l layer
}

func (h tracedHandler) Deliver(e *sim.Engine, n *sim.Node, m sim.Message) {
	t0 := time.Now()
	h.Handler.Deliver(e, n, m)
	h.t.add(h.l, t0, 1)
}

// bind is policy.Bind with its AdvanceRound hook bracketed.
func (t *tracer) bind(e *sim.Engine, c *dc.Cluster) (*policy.Binding, error) {
	e.BeforeRound(t.mark)
	b, err := policy.Bind(e, c)
	e.BeforeRound(func(*sim.Engine, int) { t.sinceMark(lDCAdvance) })
	return b, err
}

// runTraced is the traced rep of one replication. The returned map holds the
// layer counts that are not spans (messages, offers, steps).
func runTraced(s spec, in *inputs) (outcome, *tracer, map[string]float64) {
	t := newTracer()
	counts := map[string]float64{}
	runs := make([]policyRun, 0, len(s.policies))
	var runErr error
	t0 := time.Now()
	root := t.begin("run")
	for _, p := range s.policies {
		r, err := t.runPolicy(s, p, in, counts)
		if err != nil {
			runErr = fmt.Errorf("%s: %w", p, err)
			break
		}
		runs = append(runs, r)
	}
	t.end(root)
	wall := time.Since(t0).Seconds()
	o := assess(s, in, runs, runErr)
	o.wall = wall
	return o, t, counts
}

// pretrain is glap.Pretrain, traced.
func (t *tracer) pretrain(s spec, in *inputs) (*glap.PretrainResult, error) {
	cfg := s.glapConfig()
	var cl *dc.Cluster
	var err error
	t.leaf(lDCBuild, func() { cl, err = buildCluster(s, in.seed, in.w) })
	if err != nil {
		return nil, err
	}
	e := sim.NewEngine(s.pms, derive(in.seed, seedPretrain))
	b, err := t.bind(e, cl)
	if err != nil {
		return nil, err
	}
	e.Register(t.wrap(cyclon.New(0, 0), lCyclon))
	e.RegisterWindow(t.wrap(&glap.LearnProtocol{Cfg: cfg, B: b}, lLearn), 1, 0, cfg.LearnRounds-1)
	e.RegisterWindow(t.wrap(&glap.AggProtocol{}, lAgg), 1, cfg.LearnRounds, cfg.LearnRounds+cfg.AggRounds-1)
	e.Observe(func(_ *sim.Engine, r int) { t.endRound(r) })

	stage := t.begin("sim.pretrain")
	e.RunRounds(cfg.LearnRounds + cfg.AggRounds)
	t.end(stage)

	res := &glap.PretrainResult{LearnRounds: cfg.LearnRounds, AggRounds: cfg.AggRounds}
	res.Tables = make([]*glap.NodeTables, e.N())
	for i, n := range e.Nodes() {
		res.Tables[i] = glap.TablesOf(e, n)
	}
	return res, nil
}

// runPolicy is glapsim.Run for one policy, traced: the same constructors in
// the same order with the same derived seeds.
func (t *tracer) runPolicy(s spec, p glapsim.Policy, in *inputs, counts map[string]float64) (policyRun, error) {
	var run policyRun
	shared := in.tables
	if pretrains(p) && shared == nil {
		pre, err := t.pretrain(s, in)
		if err != nil {
			return run, err
		}
		if shared, err = glap.SharedTables(pre); err != nil {
			return run, err
		}
		run.pretrain = pre
	}

	var c *dc.Cluster
	var err error
	t.leaf(lDCBuild, func() { c, err = buildCluster(s, in.seed, in.w) })
	if err != nil {
		return run, err
	}
	e := sim.NewEngine(s.pms, derive(in.seed, seedEngine))
	b, err := t.bind(e, c)
	if err != nil {
		return run, err
	}
	if p != glapsim.PolicyPABFD {
		e.Register(t.wrap(cyclon.New(0, 0), lCyclon))
	}
	tables := func(*sim.Engine, *sim.Node) *glap.NodeTables { return shared }
	var async *glap.AsyncConsolidateProtocol
	var transport *sim.Transport
	switch p {
	case glapsim.PolicyGLAP:
		e.Register(t.wrap(&glap.ConsolidateProtocol{B: b, Tables: tables}, lConsolidate))
	case glapsim.PolicyGLAPAsync:
		transport = sim.NewTransport(e, sim.ConstantLatency(s.net.Latency))
		transport.DropProb = s.net.DropProb
		async = &glap.AsyncConsolidateProtocol{
			B: b, Tr: transport, Tables: tables,
			OfferTimeout: 2*e.RoundPeriod + 4*s.net.Latency,
		}
		transport.Handle(tracedHandler{async, t, lAsync})
		e.Register(t.wrap(async, lAsync))
	case glapsim.PolicyGRMP:
		e.Register(t.wrap(grmp.New(b), lGRMP))
	case glapsim.PolicyEcoCloud:
		e.Register(t.wrap(ecocloud.New(b), lEcoCloud))
	case glapsim.PolicyPABFD:
		ctl := pabfd.Install(e, b)
		e.BeforeRound(func(*sim.Engine, int) { t.sinceMark(lPABFD) })
		counts["pabfd.steps"] += float64((s.rounds + ctl.Period - 1) / ctl.Period)
	default:
		return run, fmt.Errorf("no traced assembly for policy %q", p)
	}
	e.Observe(t.mark)
	run.series = metrics.Attach(e, c, 0)
	e.Observe(func(_ *sim.Engine, r int) {
		t.sinceMark(lMetricsSample)
		t.endRound(r)
	})

	stage := t.begin("sim.run")
	e.RunRounds(s.rounds)
	t.end(stage)
	if async != nil {
		// Run the event queue dry, as the facade does for draining stacks.
		drain := t.begin("sim.drain")
		e.RunEvents(-1)
		t.end(drain)
		counts["sim.drain_s"] += float64(t.spans[drain].BusyNs) / 1e9
		counts["sim.msgs_sent"] += float64(transport.Sent)
		counts["sim.msgs_dropped"] += float64(transport.Dropped)
		counts["glap.async.offers"] += float64(async.Offers)
		counts["glap.async.accepts"] += float64(async.Accepts)
		counts["glap.async.commits"] += float64(async.Commits)
		counts["glap.async.expired"] += float64(async.Expired)
		if n := async.OpenRequests(); n != 0 {
			return run, fmt.Errorf("%d requests still open after the drain", n)
		}
	}
	t.leaf(lMetricsFinalize, func() {
		run.series.Finalize(c)
		metrics.TotalEnergyKWh(c)
	})
	t.leaf(lBFD, func() { run.bfd = bfd.MinActivePMs(c, 1e-6) })
	run.cluster = c
	return run, nil
}

// layerMetrics turns one traced rep into the per-layer metrics that come from
// spans and counts. Layers that did not run report zero.
func (t *tracer) layerMetrics(o outcome, counts map[string]float64) map[string]float64 {
	m := map[string]float64{}
	sec := func(l layer) float64 { return t.total[l].busy.Seconds() }
	calls := func(l layer) float64 { return float64(t.total[l].calls) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	perCall := func(l layer) float64 { return ratio(float64(t.total[l].busy.Nanoseconds()), calls(l)) }

	m["dc.advance_s"] = sec(lDCAdvance)
	m["dc.advance_share"] = ratio(sec(lDCAdvance), o.wall)
	m["dc.migrations"] = float64(o.migrations)
	self := selfTimes(t.spans)
	m["sim.self_s"] = float64(simSelfNs(t.spans, self)) / 1e9
	m["sim.msgs_sent"] = counts["sim.msgs_sent"]
	m["sim.msgs_dropped_frac"] = ratio(counts["sim.msgs_dropped"], counts["sim.msgs_sent"])
	m["sim.drain_s"] = counts["sim.drain_s"]
	for _, l := range []layer{lCyclon, lLearn, lAgg, lConsolidate} {
		m[layerNames[l]+".busy_s"] = sec(l)
		m[layerNames[l]+".calls"] = calls(l)
		m[layerNames[l]+".ns_per_call"] = perCall(l)
	}
	m["glap.consolidate.migrations_per_call"] = 0
	if calls(lConsolidate) > 0 {
		m["glap.consolidate.migrations_per_call"] = float64(o.migrations) / calls(lConsolidate)
	}
	m["glap.async.busy_s"] = sec(lAsync)
	m["glap.async.offers"] = counts["glap.async.offers"]
	m["glap.async.accept_frac"] = ratio(counts["glap.async.accepts"], counts["glap.async.offers"])
	m["glap.async.commits"] = counts["glap.async.commits"]
	m["glap.async.expired"] = counts["glap.async.expired"]
	m["metrics.sample_s"] = sec(lMetricsSample)
	m["metrics.finalize_s"] = sec(lMetricsFinalize)
	m["grmp.busy_s"] = sec(lGRMP)
	m["grmp.ns_per_call"] = perCall(lGRMP)
	m["ecocloud.busy_s"] = sec(lEcoCloud)
	m["ecocloud.ns_per_call"] = perCall(lEcoCloud)
	m["pabfd.step_s"] = sec(lPABFD)
	m["pabfd.steps"] = counts["pabfd.steps"]
	m["bfd.oracle_s"] = sec(lBFD)
	m["tracing.run_s"] = o.wall
	m["tracing.unattributed_frac"] = ratio(float64(self[0]), float64(t.spans[0].EndNs-t.spans[0].StartNs))
	m["overload_frac"] = o.overloadFrac
	m["qtable_cosine_final"] = o.cosine
	m["qlearn.value_mb"] = o.qvalueMB
	m["qlearn.backings"] = float64(o.qbackings)
	return m
}
