package glap

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/par"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
)

// roundOnly hides every optional engine contract of the wrapped protocol, so
// the engine takes the per-node Round path: the sequential reference.
type roundOnly struct{ sim.Protocol }

// countedAgg counts RunLane calls, which is how the tests know the lane path
// (and not Round) executed the aggregation.
type countedAgg struct {
	*AggProtocol
	laneCalls atomic.Int64
}

func (c *countedAgg) RunLane(e *sim.Engine, lane int, pairs []par.Pair, round int) {
	c.laneCalls.Add(1)
	c.AggProtocol.RunLane(e, lane, pairs, round)
}

const (
	laneLearnRounds = 6
	laneRounds      = laneLearnRounds + 14
)

// laneGate is the phase predicate of the gated cases: a third of the
// aggregation rounds are inactive.
func laneGate(r int) bool { return r%3 != 1 }

// laneStack builds Cyclon + Algorithm 1 for laneLearnRounds + Algorithm 2 for
// the rest on one engine, with a fifth of the nodes down from the start and
// node 0 going down and coming back mid-aggregation, so SelectPeer prunes
// views while lanes run. reference selects the per-node Round path.
func laneStack(t *testing.T, pms int, seed uint64, workers int, gated, reference bool) (*sim.Engine, *countedAgg) {
	t.Helper()
	cl := genCluster(t, pms, 3*pms, laneRounds, seed)
	cl.Workers = workers
	e := sim.NewEngine(pms, seed)
	e.Workers = workers
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	e.Register(cyclon.New(0, 0))
	cfg := Config{}.withDefaults()
	e.RegisterWindow(&LearnProtocol{Cfg: cfg, B: b}, 1, 0, laneLearnRounds-1)
	agg := &countedAgg{AggProtocol: &AggProtocol{}}
	var p sim.Protocol = agg
	if gated {
		p = &phased{inner: agg, active: laneGate}
	}
	if reference {
		p = roundOnly{p}
	}
	e.RegisterWindow(p, 1, laneLearnRounds, -1)
	for _, n := range e.Nodes() {
		if n.ID%5 == 3 {
			e.SetUp(n, false)
		}
	}
	e.BeforeRound(func(e *sim.Engine, r int) {
		if pms > 2 && (r == laneLearnRounds+4 || r == laneLearnRounds+9) {
			e.SetUp(e.Node(0), r != laneLearnRounds+4)
		}
	})
	return e, agg
}

// TestAggLanesMatchRound is the lane path's differential: twin engines, one
// executing Algorithm 2 as two concurrent lanes and one as per-node Round
// calls, advance in lockstep, and after every round every node's φ^out and
// φ^in must be equal cell for cell and the engine and protocol streams must
// stand at the same position — over seeds, sizes and worker counts, with
// nodes down and, on odd seeds, through phased with inactive rounds. Under
// -race it is also the check on what the lanes share: the backing pool, the
// interning cache and lazily cached cell-set hashes.
func TestAggLanesMatchRound(t *testing.T) {
	for _, pms := range []int{2, 17, 120} {
		for _, workers := range []int{1, 2, 8} {
			for seed := uint64(1); seed <= 6; seed++ {
				gated := seed%2 == 1
				name := fmt.Sprintf("pms%d/w%d/seed%d", pms, workers, seed)
				lane, laneAgg := laneStack(t, pms, seed, workers, gated, false)
				ref, refAgg := laneStack(t, pms, seed, workers, gated, true)

				// Lockstep: the reference engine runs on its own goroutine
				// and parks in its observer until the lane engine has
				// compared the round.
				step, resume := make(chan int), make(chan struct{})
				ref.Observe(func(_ *sim.Engine, r int) { step <- r; <-resume })
				active := 0
				lane.Observe(func(_ *sim.Engine, r int) {
					if got := <-step; got != r {
						t.Errorf("%s: engines out of step: %d vs %d", name, got, r)
					}
					compareLaneRound(t, name, r, lane, ref, laneAgg, refAgg)
					if r >= laneLearnRounds && (!gated || laneGate(r)) {
						active++
					}
					resume <- struct{}{}
				})
				done := make(chan struct{})
				go func() { defer close(done); ref.RunRounds(laneRounds) }()
				lane.RunRounds(laneRounds)
				<-done

				if n := refAgg.laneCalls.Load(); n != 0 {
					t.Errorf("%s: reference engine took the lane path %d times", name, n)
				}
				// One RunLane per lane per round that drew a pair; only a
				// round in which no up node finds a peer draws none.
				n := laneAgg.laneCalls.Load()
				if n > int64(mergeLanes*active) || (pms > 2 && n != int64(mergeLanes*active)) {
					t.Errorf("%s: %d RunLane calls over %d active rounds", name, n, active)
				}
				if t.Failed() {
					return
				}
			}
		}
	}
}

func compareLaneRound(t *testing.T, name string, r int, lane, ref *sim.Engine, laneAgg, refAgg *countedAgg) {
	for id := 0; id < lane.N(); id++ {
		a, b := TablesOf(lane, lane.Node(id)), TablesOf(ref, ref.Node(id))
		if !qlearn.Equal(a.Out, b.Out) || a.Out.Len() != b.Out.Len() {
			t.Errorf("%s round %d node %d: φ^out diverges (%d vs %d cells)", name, r, id, a.Out.Len(), b.Out.Len())
		}
		if !qlearn.Equal(a.In, b.In) || a.In.Len() != b.In.Len() {
			t.Errorf("%s round %d node %d: φ^in diverges (%d vs %d cells)", name, r, id, a.In.Len(), b.In.Len())
		}
	}
	// Copies, so that peeking does not advance the streams.
	la, ra := *lane.RNG(), *ref.RNG()
	if la.Uint64() != ra.Uint64() {
		t.Errorf("%s round %d: engine RNG positions differ", name, r)
	}
	ld, rd := *laneAgg.rng.For(lane, 0xa66a66), *refAgg.rng.For(ref, 0xa66a66)
	if ld.Uint64() != rd.Uint64() {
		t.Errorf("%s round %d: aggregation draw streams differ", name, r)
	}
}

// TestPretrainLanesWorkerIdentity runs the facade's pre-training, where the
// lanes are always on, at Workers 1 (lanes inline), 2 and 8: every node's
// tables must be identical, on tables large enough for canonical interning —
// the one piece of merge state both lanes write — to engage.
func TestPretrainLanesWorkerIdentity(t *testing.T) {
	run := func(workers int) *PretrainResult {
		cl := genCluster(t, 60, 180, 80, 5)
		res, err := Pretrain(Config{LearnRounds: 45, AggRounds: 30}, cl, 23, PretrainOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	most := 0
	for _, tb := range base.Tables {
		most = max(most, tb.Out.Len(), tb.In.Len())
	}
	if most < 256 {
		t.Fatalf("largest table has %d cells: too small for interning to engage", most)
	}
	for _, workers := range []int{2, 8} {
		res := run(workers)
		for i, tb := range res.Tables {
			if !qlearn.Equal(tb.Out, base.Tables[i].Out) || !qlearn.Equal(tb.In, base.Tables[i].In) {
				t.Fatalf("Workers=%d node %d: tables differ from Workers=1", workers, i)
			}
		}
	}
}
