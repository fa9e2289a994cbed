package glap

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
)

func newBenchCyclon() *cyclon.Protocol { return cyclon.New(20, 8) }

// The benchmarks and zero-allocation tests run on clusters whose 200-round
// trace is generated from seed 5 and placed from seed 7, and consolidate with
// the shared Q store of a 50-PM pre-training.
const benchSeed, benchPlace = 5, 7

// BenchmarkLearningRound measures one Algorithm 1 round over a 100-PM
// cluster — the dominant cost of GLAP pre-training.
func BenchmarkLearningRound(b *testing.B) {
	cl := genCluster(b, 100, 300, 200, benchSeed, benchPlace)
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
// for. RunRounds restarts at round 0 on every call, so a round window
// cannot keep training out of the timed rounds; both phases are registered
// with RegisterWhen over a flag instead. -cpu 1,2 shows the lane speed-up:
// one processor runs the two lanes inline. Run it with -benchtime 50x: the
// tables converge within a few hundred rounds, after which a round is
// pointer compares.
func BenchmarkAggRound(b *testing.B) {
	e := aggBenchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRounds(1)
	}
}

// aggBenchEngine is BenchmarkAggRound's set-up: a 300-PM engine whose tables
// 40 learning rounds filled, on which RunRounds(1) is one aggregation round.
func aggBenchEngine(tb testing.TB) *sim.Engine {
	cl := genCluster(tb, 300, 900, 200, benchSeed, benchPlace)
	e := sim.NewEngine(300, 1)
	bd, err := policy.Bind(e, cl)
	if err != nil {
		tb.Fatal(err)
	}
	e.Register(newBenchCyclon())
	learning := true
	e.RegisterWhen(&LearnProtocol{Cfg: DefaultConfig(), B: bd}, func(int) bool { return learning })
	e.RegisterWhen(&AggProtocol{}, func(int) bool { return !learning })
	e.RunRounds(40) // populate tables first
	learning = false
	return e
}

// BenchmarkConsensusCheck measures Pretrain's end-of-round consensus check on
// BenchmarkAggRound's cluster after a given number of aggregation rounds —
// the cost it adds to each of them. Early on the second node's tables already
// differ; the check grows only as the nodes come to agree, and at consensus
// (settled: once, in the round the check first holds) it scans every
// distinct backing in full.
func BenchmarkConsensusCheck(b *testing.B) {
	for _, rounds := range []int{1, 30, 60, 0} {
		name := fmt.Sprintf("agg-rounds=%d", rounds)
		if rounds == 0 {
			name = "settled"
		}
		b.Run(name, func(b *testing.B) {
			e := aggBenchEngine(b)
			var c consensusCheck
			switch {
			case rounds > 0:
				e.RunRounds(rounds)
				if c.holds(e) {
					b.Fatalf("tables identical after %d rounds: pick an earlier stage", rounds)
				}
			default:
				for i := 0; !c.holds(e); i++ {
					if i == 500 {
						b.Fatal("no consensus in 500 aggregation rounds")
					}
					e.RunRounds(1)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.holds(e)
			}
		})
	}
}

// vetoingTables pairs φ^out with a φ^in that vetoes every offer, for a
// consolidation protocol's Tables.
func vetoingTables(out *qlearn.Table) func(*sim.Engine, *sim.Node) *NodeTables {
	veto := &NodeTables{Out: out, In: qlearn.New(0.5, 0.8)}
	for s := 0; s < qlearn.DenseSpan; s++ {
		for a := 0; a < qlearn.DenseSpan; a++ {
			veto.In.Set(qlearn.State(s), qlearn.Action(a), -1)
		}
	}
	return func(*sim.Engine, *sim.Node) *NodeTables { return veto }
}

// settle runs a consolidation stack's first 30 rounds, after which the
// benchmarks measure it, and fails unless two PMs are still active to
// exchange.
func settle(tb testing.TB, e *sim.Engine, cl *dc.Cluster) {
	tb.Helper()
	e.RunRounds(30)
	if cl.ActivePMs() < 2 {
		tb.Fatalf("only %d active PMs: no exchange left to measure", cl.ActivePMs())
	}
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
// live PM: peer draw, direction rule, π_out, π_in) in the settled state: a
// 200-PM stack over converged tables has packed the cluster for 30 rounds,
// and then a φ^in that vetoes every offer is swapped in. From there each
// exchange is the no-migration exchange that makes up nearly all of a long
// run, whichever peers it draws.
func BenchmarkConsolidateRound(b *testing.B) {
	shared := pretrainShared(b, Config{LearnRounds: 20, AggRounds: 10}, genCluster(b, 50, 150, 200, benchSeed, benchPlace), 1)
	e, cons := syncStack(b, genCluster(b, 200, 600, 200, benchSeed, benchPlace), shared, 2, 20, 10)
	settle(b, e, cons.B.C)
	cons.Tables = vetoingTables(shared.Out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		consolidatePass(e, cons)
	}
}

// TestConsolidateRoundZeroAlloc pins the no-migration exchange — peer draw,
// both UPDATESTATE calls, the VM-list read, π_out and π_in — at zero heap
// allocations, in BenchmarkConsolidateRound's settled state.
func TestConsolidateRoundZeroAlloc(t *testing.T) {
	shared := pretrainShared(t, Config{LearnRounds: 20, AggRounds: 10}, genCluster(t, 50, 150, 200, benchSeed, benchPlace), 1)
	e, cons := syncStack(t, genCluster(t, 200, 600, 200, benchSeed, benchPlace), shared, 2, 20, 10)
	settle(t, e, cons.B.C)
	cons.Tables = vetoingTables(shared.Out)
	before := cons.B.C.Migrations
	allocs := testing.AllocsPerRun(20, func() { consolidatePass(e, cons) })
	if cons.B.C.Migrations != before {
		t.Fatalf("%d migrations during the measurement: not the no-migration exchange", cons.B.C.Migrations-before)
	}
	if allocs != 0 {
		t.Fatalf("consolidation round allocates: %.1f allocs/run, want 0", allocs)
	}
}

// asyncPass runs one round of the message-carried protocol outside RunRounds
// (which restarts at round 0 on every call): one exchange per live
// node, then the round period's deliveries, retries and expiries.
func asyncPass(e *sim.Engine, cons *AsyncConsolidateProtocol) {
	for _, n := range e.Nodes() {
		if n.Up() {
			cons.Round(e, n, e.Round())
		}
	}
	e.RunEvents(e.Now() + e.RoundPeriod)
}

// BenchmarkAsyncConsolidateRound measures one round of Algorithm 3 carried by
// messages — exchange, offer, verdict and commit traffic, timeouts and
// retries — on a 720-PM × 4 cluster at latency 30 and 10 % loss (the
// async_lossy shape at 0.12 × the paper's largest cluster), with the
// facade's request timeout, warmed by 30 rounds so that the Cyclon views, the
// free lists, the maps and the event queue have their working size.
func BenchmarkAsyncConsolidateRound(b *testing.B) {
	shared := pretrainShared(b, Config{LearnRounds: 20, AggRounds: 10}, genCluster(b, 50, 150, 200, benchSeed, benchPlace), 1)
	e, cons := asyncStack(b, genCluster(b, 720, 4*720, 200, benchSeed, benchPlace), shared, 2, 20, 8, 30, 0.1)
	cons.OfferTimeout = 2*e.RoundPeriod + 4*30
	settle(b, e, cons.B.C)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asyncPass(e, cons)
	}
}

// TestAsyncConsolidateRoundZeroAlloc pins the message-carried no-offer
// exchange — load push and reply through the transport, the exchange
// deadline, both endpoints' direction rule, π_out and π_in — at zero heap
// allocations on a warm lossless 200-PM cluster (as in
// BenchmarkAsyncConsolidateRound, φ^in swapped for one that vetoes every
// offer as in TestConsolidateRoundZeroAlloc), and what a committed
// offer still allocates at a small constant — 8.0 per commit here, rejected
// offers included: its boxed offer, verdict and done payloads, the offer
// request's two callbacks, the target's hold callback and the amortised
// growth of the token maps.
func TestAsyncConsolidateRoundZeroAlloc(t *testing.T) {
	live := pretrainShared(t, Config{LearnRounds: 20, AggRounds: 10}, genCluster(t, 50, 150, 200, benchSeed, benchPlace), 1)
	e, cons := asyncStack(t, genCluster(t, 200, 4*200, 200, benchSeed, benchPlace), live, 2, 20, 8, 30, 0)
	cons.OfferTimeout = 2*e.RoundPeriod + 4*30
	settle(t, e, cons.B.C)
	cons.Tables = vetoingTables(live.Out)
	for i := 0; i < 4; i++ { // let every sequence started on the live tables finish
		asyncPass(e, cons)
	}
	exchanges, offers := cons.Exchanges, cons.Offers
	allocs := testing.AllocsPerRun(20, func() { asyncPass(e, cons) })
	if cons.Offers != offers {
		t.Fatalf("%d offers during the measurement: not the no-offer exchange", cons.Offers-offers)
	}
	if cons.Exchanges == exchanges {
		t.Fatal("no exchange during the measurement")
	}
	if allocs != 0 {
		t.Fatalf("message-carried consolidation round allocates: %.1f allocs/run, want 0", allocs)
	}

	// Committed offers: live tables, demand advancing every round.
	cons.Tables = func(*sim.Engine, *sim.Node) *NodeTables { return live }
	c := cons.B.C
	commits := cons.Commits
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 30; r < 60; r++ {
		c.AdvanceRound(r)
		asyncPass(e, cons)
	}
	runtime.ReadMemStats(&after)
	n := cons.Commits - commits
	if n < 10 {
		t.Fatalf("only %d commits in 30 rounds: the offer path went unmeasured", n)
	}
	const perCommit = 10
	if per := float64(after.Mallocs-before.Mallocs) / float64(n); per > perCommit {
		t.Fatalf("%.1f allocations per committed offer, want at most %d", per, perCommit)
	}
}

// BenchmarkIOVec measures the reusable dense φ^io fill that convergence
// measurement samples.
func BenchmarkIOVec(b *testing.B) {
	tb := NewNodeTables()
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
	l := &LearnProtocol{Cfg: DefaultConfig()}
	st := NewNodeTables()
	sc := &st.scratch
	for _, p := range benchProfiles(6, 11) {
		sc.base = append(sc.base, profileToKernel(p))
	}
	sc.total = coverCount(sc.base, benchCapacity[dc.CPU], duplicationTargetUtil)
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
// PMs × rounds × learnIterations. A PM over the utilisation gate in some
// round runs no iterations in it, so the figure is a lower bound on the cost
// of one trainOnce call; the benchmark fails if a PM never trained at all.
func BenchmarkLearnPhase(b *testing.B) {
	const pms, ratio, rounds = 120, 3, 50
	cfg := DefaultConfig()
	cfg.LearnRounds, cfg.AggRounds = rounds, -1
	learnSec := 0.0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl := genCluster(b, pms, pms*ratio, 200, benchSeed, benchPlace)
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
	iters := float64(b.N) * pms * rounds * float64(learnIterations)
	b.ReportMetric(learnSec*1e9/iters, "ns/learn-iter")
}

// BenchmarkTrainOnceReference is the retained pre-fusion baseline for
// BenchmarkTrainOnce: materialised multiset, partition into an allocated
// subset slice, four O(P) subset scans per iteration.
func BenchmarkTrainOnceReference(b *testing.B) {
	l := &LearnProtocol{Cfg: DefaultConfig()}
	st := NewNodeTables()
	dup := duplicateToCover(benchProfiles(6, 11), benchCapacity, duplicationTargetUtil)
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
// change): the element masks and bitset are refilled in place and the
// boundary table is rebuilt inside the scratch, so none of it may allocate.
func TestTrainOnceZeroAllocs(t *testing.T) {
	l := &LearnProtocol{Cfg: DefaultConfig()}
	st := NewNodeTables()
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
		sc.total = coverCount(sc.base, pmCap[dc.CPU], duplicationTargetUtil)
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
