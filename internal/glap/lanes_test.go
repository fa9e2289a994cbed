package glap

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/par"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
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

// TestAggLanesConserveMass is the lossless-aggregation property behind the
// gossip-TD conditions: every node's φ^out and φ^in start with the same cells
// holding distinct values, and AggProtocol runs, lanes inline (Workers 1) and
// concurrent (Workers 2). After every round, for each table separately, the
// live nodes' sum of every cell must equal its initial sum up to a few ulps ×
// N of rounding, and the cell's variance across nodes must not rise. A node
// down from the start neither acts nor is picked as a peer: its tables stay
// bit for bit as seeded.
func TestAggLanesConserveMass(t *testing.T) {
	const nodes, rounds, down = 40, 12, 7
	cells := []qlearn.Key{{S: 0, A: 0}, {S: 0, A: 3}, {S: 5, A: 1}, {S: 9, A: 9}, {S: 40, A: 2}}
	for _, workers := range []int{1, 2} {
		e := sim.NewEngine(nodes, 3)
		e.Workers = workers
		e.Register(cyclon.New(0, 0))
		storeOnly(e)
		e.Register(&AggProtocol{})
		e.RunRounds(0) // set up the stores
		rng := sim.NewRNG(5)
		for _, n := range e.Nodes() {
			tb := TablesOf(e, n)
			for _, k := range cells {
				tb.Out.Set(k.S, k.A, rng.Float64()*10-5)
				tb.In.Set(k.S, k.A, rng.Float64()*10-5)
			}
		}
		e.SetUp(e.Node(down), false)

		// column returns one cell of one table across the live nodes, and the
		// down node's value.
		column := func(lane int, k qlearn.Key) (live []float64, off float64) {
			for _, n := range e.Nodes() {
				tb := TablesOf(e, n).Out
				if lane == 1 {
					tb = TablesOf(e, n).In
				}
				if n.ID == down {
					off = tb.Get(k.S, k.A)
				} else {
					live = append(live, tb.Get(k.S, k.A))
				}
			}
			return live, off
		}
		type cellStat struct{ sum, tol, variance, off float64 }
		var initial, last [mergeLanes][]cellStat
		measure := func() (st [mergeLanes][]cellStat) {
			for lane := range st {
				for _, k := range cells {
					live, off := column(lane, k)
					sum, abs := 0.0, 0.0
					for _, v := range live {
						sum, abs = sum+v, abs+math.Abs(v)
					}
					ulp := math.Nextafter(abs, math.Inf(1)) - abs
					st[lane] = append(st[lane], cellStat{
						sum: sum, tol: 4 * nodes * ulp,
						variance: stats.Variance(live), off: off,
					})
				}
			}
			return st
		}
		initial = measure()
		last = initial
		e.Observe(func(e *sim.Engine, r int) {
			now := measure()
			for lane := range now {
				for i, c := range now[lane] {
					c0, prev := initial[lane][i], last[lane][i]
					if math.Abs(c.sum-c0.sum) > c0.tol {
						t.Errorf("workers=%d round %d lane %d cell %v: sum %v, initially %v", workers, r, lane, cells[i], c.sum, c0.sum)
					}
					if c.variance > prev.variance {
						t.Errorf("workers=%d round %d lane %d cell %v: variance rose %g -> %g", workers, r, lane, cells[i], prev.variance, c.variance)
					}
					if math.Float64bits(c.off) != math.Float64bits(c0.off) {
						t.Errorf("workers=%d round %d lane %d cell %v: down node's value moved %v -> %v", workers, r, lane, cells[i], c0.off, c.off)
					}
				}
			}
			last = now
		})
		e.RunRounds(rounds)
		for lane := range last {
			for i, c := range last[lane] {
				if c.variance > initial[lane][i].variance/100 {
					t.Errorf("workers=%d lane %d cell %v: variance only fell %g -> %g in %d rounds", workers, lane, cells[i], initial[lane][i].variance, c.variance, rounds)
				}
			}
		}
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
