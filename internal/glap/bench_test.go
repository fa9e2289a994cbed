package glap

import (
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

func newBenchCyclon() *cyclon.Protocol { return cyclon.New(20, 8) }

func benchTrace(vms int) (*trace.Set, error) {
	return trace.Generate(trace.DefaultGenConfig(vms, 200, 5))
}

// BenchmarkLearningRound measures one Algorithm 1 round over a 100-PM
// cluster — the dominant cost of GLAP pre-training.
func BenchmarkLearningRound(b *testing.B) {
	cl := benchGenCluster(b, 100, 300)
	e := sim.NewEngine(100, 1)
	bd, err := policy.Bind(e, cl)
	if err != nil {
		b.Fatal(err)
	}
	learn := &LearnProtocol{Cfg: DefaultConfig(), B: bd}
	e.Register(newBenchCyclon())
	e.Register(learn)
	e.RunRounds(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRounds(1)
	}
}

// BenchmarkAggRound measures one Algorithm 2 round (pairwise table
// unification across a 300-PM cluster, tables as 40 training rounds leave
// them) — the aggregation-phase hot path the dense Q-table backing exists
// for. RunRounds restarts at round 0 on every call, so a registration window
// cannot keep training out of the timed rounds; a flag gates the phases
// instead. -cpu 1,2 shows the lane speed-up: one processor runs the two lanes
// inline. Run it with -benchtime 50x: the tables converge within a few
// hundred rounds, after which a round is pointer compares.
func BenchmarkAggRound(b *testing.B) {
	cl := benchGenCluster(b, 300, 900)
	e := sim.NewEngine(300, 1)
	bd, err := policy.Bind(e, cl)
	if err != nil {
		b.Fatal(err)
	}
	e.Register(newBenchCyclon())
	learning := true
	e.Register(&phased{
		inner:  &LearnProtocol{Cfg: DefaultConfig(), B: bd},
		active: func(int) bool { return learning },
	})
	e.Register(&phased{inner: &AggProtocol{}, active: func(int) bool { return !learning }})
	e.RunRounds(40) // populate tables first
	learning = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRounds(1)
	}
}

// settledConsolidation builds a 200-PM consolidation stack over converged
// tables, lets Algorithm 3 pack the cluster for 30 rounds, and then swaps in
// a φ^in that vetoes every offer: from there each exchange is the
// no-migration exchange that makes up nearly all of a long run — direction
// rule, VM-list read, π_out, π_in — whichever peers it draws.
func settledConsolidation(tb testing.TB) (*sim.Engine, *ConsolidateProtocol) {
	tb.Helper()
	res, err := Pretrain(Config{LearnRounds: 20, AggRounds: 10}, benchGenCluster(tb, 50, 150), 1, PretrainOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	shared, err := SharedTables(res)
	if err != nil {
		tb.Fatal(err)
	}
	cl := benchGenCluster(tb, 200, 600)
	e := sim.NewEngine(200, 2)
	bd, err := policy.Bind(e, cl)
	if err != nil {
		tb.Fatal(err)
	}
	cons := InstallConsolidation(e, bd, shared, Config{}, PretrainOptions{})
	e.RunRounds(30)
	if cl.ActivePMs() < 2 {
		tb.Fatalf("only %d active PMs: no exchange left to measure", cl.ActivePMs())
	}
	veto := &NodeTables{Out: shared.Out, In: qlearn.New(0.5, 0.8)}
	for s := 0; s < ioSpan; s++ {
		for a := 0; a < ioSpan; a++ {
			veto.In.Set(qlearn.State(s), qlearn.Action(a), -1)
		}
	}
	cons.Tables = func(*sim.Engine, *sim.Node) *NodeTables { return veto }
	return e, cons
}

// consolidatePass runs one exchange per live node.
func consolidatePass(e *sim.Engine, cons *ConsolidateProtocol) {
	for _, n := range e.Nodes() {
		if n.Up() {
			cons.Round(e, n, e.Round())
		}
	}
}

// BenchmarkConsolidateRound measures one Algorithm 3 pass (one exchange per
// live PM: peer draw, direction rule, π_out, π_in) in the settled state.
func BenchmarkConsolidateRound(b *testing.B) {
	e, cons := settledConsolidation(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		consolidatePass(e, cons)
	}
}

// TestConsolidateRoundZeroAlloc pins the no-migration exchange — peer draw,
// both UPDATESTATE calls, the VM-list read, π_out and π_in — at zero heap
// allocations.
func TestConsolidateRoundZeroAlloc(t *testing.T) {
	e, cons := settledConsolidation(t)
	before := cons.B.C.Migrations
	allocs := testing.AllocsPerRun(20, func() { consolidatePass(e, cons) })
	if cons.B.C.Migrations != before {
		t.Fatalf("%d migrations during the measurement: not the no-migration exchange", cons.B.C.Migrations-before)
	}
	if allocs != 0 {
		t.Fatalf("consolidation round allocates: %.1f allocs/run, want 0", allocs)
	}
}

// BenchmarkIOVec measures the reusable dense φ^io fill that replaced the
// per-sample IOFlat map build in convergence measurement.
func BenchmarkIOVec(b *testing.B) {
	tb := &NodeTables{Out: qlearn.New(0.5, 0.8), In: qlearn.New(0.5, 0.8)}
	for s := 0; s < 81; s++ {
		for a := 0; a < 81; a++ {
			tb.Out.Set(qlearn.State(s), qlearn.Action(a), float64(s+a))
			tb.In.Set(qlearn.State(s), qlearn.Action(a), float64(s-a))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tb.IOVec()
	}
}

// BenchmarkIOFlat is the retired map-based baseline for BenchmarkIOVec.
func BenchmarkIOFlat(b *testing.B) {
	tb := &NodeTables{Out: qlearn.New(0.5, 0.8), In: qlearn.New(0.5, 0.8)}
	for s := 0; s < 81; s++ {
		for a := 0; a < 81; a++ {
			tb.Out.Set(qlearn.State(s), qlearn.Action(a), float64(s+a))
			tb.In.Set(qlearn.State(s), qlearn.Action(a), float64(s-a))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tb.IOFlat()
	}
}

// benchProfiles synthesises a deterministic base profile set whose demands
// span the calibrated level range, against the given PM capacity.
func benchProfiles(baseVMs int, seed uint64) []profile {
	rng := sim.NewRNG(seed)
	ps := make([]profile, baseVMs)
	for i := range ps {
		var cur, avg dc.Vec
		for r := 0; r < dc.NumResources; r++ {
			avg[r] = 0.05 + 0.6*rng.Float64()
			cur[r] = 0.05 + 0.6*rng.Float64()
		}
		ps[i] = profile{cur: cur, avg: avg, cap: dc.Vec{500, 613}}
	}
	return ps
}

// benchCapacity is the PM capacity the synthetic kernel benchmark trains
// against (one PM hosting small-spec VMs, as in the evaluation clusters).
var benchCapacity = dc.Vec{2660, 4096}

// profileToKernel converts a reference profile into the fused kernel's
// precomputed form — the same precomputation appendKernelProfile applies
// when collecting live VMs.
func profileToKernel(p profile) kernelProfile {
	var k kernelProfile
	for r := 0; r < dc.NumResources; r++ {
		k.wAvg[r] = p.avg[r] * p.cap[r]
		k.wCur[r] = p.cur[r] * p.cap[r]
	}
	k.actAvg = LevelsOf(p.avg).Action()
	k.actCur = LevelsOf(p.cur).Action()
	return k
}

// BenchmarkTrainOnce measures one fused simulated-migration training
// iteration — Algorithm 1's inner loop — over a typical collected profile
// set. The fused kernel must run allocation-free in steady state; CI runs
// this bench with -benchmem and TestTrainOnceZeroAllocs pins the invariant.
func BenchmarkTrainOnce(b *testing.B) {
	cfg := DefaultConfig()
	l := &LearnProtocol{Cfg: cfg}
	st := &NodeTables{Out: qlearn.New(cfg.Alpha, cfg.Gamma), In: qlearn.New(cfg.Alpha, cfg.Gamma)}
	sc := &st.scratch
	for _, p := range benchProfiles(6, 11) {
		sc.base = append(sc.base, profileToKernel(p))
	}
	sc.total = coverCount(sc.base, benchCapacity[dc.CPU], cfg.DuplicationTargetUtil)
	sc.prepare(benchCapacity)
	rng := sim.NewRNG(3)
	for i := 0; i < 64; i++ {
		l.trainOnce(rng, st, sc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.trainOnce(rng, st, sc)
	}
}

// BenchmarkLearnPhase measures the kernel where it runs: 50 learning rounds of
// a 120-PM × ratio-3 cluster (the paper_glap shape) through Pretrain on one
// worker, no aggregation. BenchmarkTrainOnce's six synthetic profiles make a
// smaller multiset and shallower tables than a live pre-training collects, so
// its ns/op understates the in-situ cost. ns/learn-iter is the learning
// phase's whole wall time — each round's profile collection, prepare, Cyclon
// shuffle and demand advance included — over the nominal iteration count
// PMs × rounds × LearnIterations. A PM over the utilisation gate in some
// round runs no iterations in it, so the figure is a lower bound on the cost
// of one trainOnce call; the benchmark fails if a PM never trained at all.
func BenchmarkLearnPhase(b *testing.B) {
	const pms, ratio, rounds = 120, 3, 50
	cfg := DefaultConfig()
	cfg.LearnRounds, cfg.AggRounds = rounds, -1
	learnSec := 0.0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl := benchGenCluster(b, pms, pms*ratio)
		b.StartTimer()
		res, err := Pretrain(cfg, cl, 1, PretrainOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for id, t := range res.Tables {
			if !t.Trained {
				b.Fatalf("PM %d was gated out of every learning round", id)
			}
		}
		learnSec += res.LearnSec
	}
	iters := float64(b.N) * pms * rounds * float64(cfg.LearnIterations)
	b.ReportMetric(learnSec*1e9/iters, "ns/learn-iter")
}

// BenchmarkTrainOnceReference is the retained pre-fusion baseline for
// BenchmarkTrainOnce: materialised multiset, partition into an allocated
// subset slice, four O(P) subset scans per iteration.
func BenchmarkTrainOnceReference(b *testing.B) {
	cfg := DefaultConfig()
	l := &LearnProtocol{Cfg: cfg}
	st := &NodeTables{Out: qlearn.New(cfg.Alpha, cfg.Gamma), In: qlearn.New(cfg.Alpha, cfg.Gamma)}
	dup := duplicateToCover(benchProfiles(6, 11), benchCapacity, cfg.DuplicationTargetUtil)
	rng := sim.NewRNG(3)
	for i := 0; i < 64; i++ {
		l.refTrainOnce(rng, st, dup, benchCapacity)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.refTrainOnce(rng, st, dup, benchCapacity)
	}
}

// TestTrainOnceZeroAllocs pins the kernel's steady-state allocation count at
// exactly zero — the regression guard behind BenchmarkTrainOnce. A measured
// run is a whole prepare + train sequence against alternating PM capacities
// (what a node on a heterogeneous fleet would see if its capacity could
// change): the select table and bitset are refilled in place and the
// boundary table is rebuilt inside the scratch, so none of it may allocate.
func TestTrainOnceZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	l := &LearnProtocol{Cfg: cfg}
	st := &NodeTables{Out: qlearn.New(cfg.Alpha, cfg.Gamma), In: qlearn.New(cfg.Alpha, cfg.Gamma)}
	// Pre-size the cell arrays: the compact backing grows amortised, and a
	// measured iteration that visits a brand-new cell at a capacity boundary
	// would otherwise count one legitimate growth allocation.
	st.Out.Reserve(qlearn.DenseSpan * qlearn.DenseSpan)
	st.In.Reserve(qlearn.DenseSpan * qlearn.DenseSpan)
	sc := &st.scratch
	for _, p := range benchProfiles(6, 11) {
		sc.base = append(sc.base, profileToKernel(p))
	}
	rng := sim.NewRNG(3)
	caps := []dc.Vec{benchCapacity, dc.HPProLiantML110G4.Capacity}
	round := func(pmCap dc.Vec) {
		sc.total = coverCount(sc.base, pmCap[dc.CPU], cfg.DuplicationTargetUtil)
		sc.prepare(pmCap)
		for i := 0; i < 8; i++ {
			l.trainOnce(rng, st, sc)
		}
	}
	for i := 0; i < 16; i++ {
		round(caps[i%2])
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		round(caps[i%2])
		i++
	}); n != 0 {
		t.Fatalf("prepare + trainOnce allocates %v times per round; want 0", n)
	}
	if sc.cal.cap != caps[(i-1)%2] || !sc.cal.exact {
		t.Fatalf("boundary table not rebuilt for the last capacity: %+v", sc.cal)
	}
}

func BenchmarkLevelOf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = LevelOf(float64(i%100) / 100)
	}
}

func BenchmarkStatePack(b *testing.B) {
	ls := Levels{X3High, Medium}
	for i := 0; i < b.N; i++ {
		_ = LevelsOfState(ls.State())
	}
}

// helpers shared by the benchmarks and the zero-alloc tests (the other test
// helpers take *testing.T).

func benchGenCluster(tb testing.TB, pms, vms int) *dc.Cluster {
	tb.Helper()
	set, err := benchTrace(vms)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := dc.New(dc.Config{PMs: pms, Workload: set})
	if err != nil {
		tb.Fatal(err)
	}
	rng := sim.NewRNG(7)
	c.PlaceRandom(rng.Intn)
	return c
}
