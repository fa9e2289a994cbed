package glap

import (
	"fmt"
	"math"
	"time"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/gossip"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
)

// PretrainResult is the outcome of the two-phase gossip learning protocol.
type PretrainResult struct {
	// Tables holds every node's Q store at the end of the aggregation
	// phase. When ConsensusRound is not -1, every node's φ^out holds the same
	// cells with bit-identical values, and so does every node's φ^in
	// (qlearn.Identical); otherwise they may differ in any cell.
	Tables []*NodeTables
	// Convergence is the mean pairwise cosine similarity of φ^io sampled
	// at the end of each measured round: first the learning-phase (WOG)
	// rounds, then the aggregation-phase (WG) rounds.
	Convergence []float64
	// ConvergenceRound[i] is the round Convergence[i] was measured at.
	ConvergenceRound []int
	// ConsensusRound is the first aggregation round at whose end every node
	// held identical tables, counted like ConvergenceRound (the aggregation
	// phase starts at round LearnRounds), or -1 when no round did.
	ConsensusRound int
	// LearnRounds and AggRounds echo the phase split used.
	LearnRounds, AggRounds int
	// LearnSec and AggSec attribute the run's wall time to the two phases:
	// rounds [0, LearnRounds) (Algorithm 1) and the rest (Algorithm 2 plus
	// result collection). The split lets the scale benchmark report which
	// phase a regression lives in without a profiler.
	LearnSec, AggSec float64
}

// FinalSimilarity returns the last measured convergence value, or NaN when
// nothing was measured (PretrainOptions.MeasureEvery 0, as in every
// consolidation run); ConsensusRound is always recorded.
func (r *PretrainResult) FinalSimilarity() float64 {
	if len(r.Convergence) == 0 {
		return math.NaN()
	}
	return r.Convergence[len(r.Convergence)-1]
}

// PretrainOptions tunes the pretraining run.
type PretrainOptions struct {
	// MeasureEvery samples convergence every k rounds (0 disables
	// measurement, 1 measures every round).
	MeasureEvery int
	// MeasurePairs is the number of random node pairs per sample
	// (default 64).
	MeasurePairs int
	// CyclonViewSize / CyclonShuffleLen configure the overlay. Zero takes
	// cyclon.New's defaults: view 20, shuffle (view+1)/2, so 10 at the
	// default view.
	CyclonViewSize   int
	CyclonShuffleLen int
	// Workers bounds fork-join parallelism inside the pretraining engine —
	// Algorithm 1's node pass and Algorithm 2's two merge lanes — and its
	// cluster (see sim.Engine.Workers for the semantics). Results are
	// identical for every setting.
	Workers int
}

// Pretrain executes the paper's pre-training: Algorithm 1 for
// cfg.LearnRounds rounds, then Algorithm 2 for cfg.AggRounds rounds, on a
// dedicated engine bound to cl. The cluster advances through the workload
// while training so that VMs accumulate the average-demand history the
// state calibration depends on, and stops with the learning phase: nothing
// after it reads the cluster. cl is consumed by the call; build the
// comparison cluster separately so every policy starts from the same
// initial placement.
//
// Algorithm 2 ends at exact consensus. After the first aggregation round at
// whose end every node's tables are identical (ConsensusRound), no merge can
// change a value. The rounds left still draw their pairs, and the overlay
// still shuffles, because those draws decide which nodes end up sharing a
// backing; but an exchange only makes the pair share one, which is all a
// merge of identical tables does. The result is the one the full phase
// produces, value for value and backing for backing (DESIGN.md §7,
// "Aggregation ends at consensus").
func Pretrain(cfg Config, cl *dc.Cluster, seed uint64, opts PretrainOptions) (*PretrainResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := sim.NewEngine(len(cl.PMs), seed)
	e.Workers = opts.Workers
	cl.Workers = opts.Workers
	// policy.Bind's wiring with the demand advance confined to the learning
	// phase. Its look-ahead is left out: every pre-training round forks
	// (Algorithm 1's node pass, then Algorithm 2's lanes), and the engine
	// never runs a look-ahead beside a fork.
	b := &policy.Binding{E: e, C: cl}
	e.BeforeRound(func(_ *sim.Engine, round int) {
		if round < cfg.LearnRounds {
			cl.AdvanceRound(round)
		}
	})
	e.Register(cyclon.New(opts.CyclonViewSize, opts.CyclonShuffleLen))
	learn := &LearnProtocol{Cfg: cfg, B: b}
	e.RegisterWindow(learn, 1, 0, cfg.LearnRounds-1)
	agg := &AggProtocol{}
	e.RegisterWindow(agg, 1, cfg.LearnRounds, cfg.LearnRounds+cfg.AggRounds-1)

	res := &PretrainResult{LearnRounds: cfg.LearnRounds, AggRounds: cfg.AggRounds, ConsensusRound: -1}
	if opts.MeasureEvery > 0 {
		pairs := opts.MeasurePairs
		if pairs <= 0 {
			pairs = 64
		}
		measureRNG := e.RNG().Derive(0x3ea5)
		e.Observe(func(e *sim.Engine, round int) {
			if round%opts.MeasureEvery != 0 {
				return
			}
			sim1 := gossip.MeanPairwiseCosineDense(e, IOVectorDense, pairs, measureRNG)
			res.Convergence = append(res.Convergence, sim1)
			res.ConvergenceRound = append(res.ConvergenceRound, round)
		})
	}

	// Phase attribution: an observer timestamps the learning→aggregation
	// boundary.
	start := time.Now()
	boundary := start
	e.Observe(func(e *sim.Engine, round int) {
		if round == cfg.LearnRounds-1 {
			boundary = time.Now()
		}
	})

	if cfg.AggRounds > 0 {
		var c consensusCheck
		e.Observe(func(e *sim.Engine, round int) {
			if round >= cfg.LearnRounds && !agg.settled && c.holds(e) {
				agg.settled = true
				res.ConsensusRound = round
			}
		})
	}

	e.RunRounds(cfg.LearnRounds + cfg.AggRounds)

	res.Tables = make([]*NodeTables, e.N())
	for i, n := range e.Nodes() {
		res.Tables[i] = TablesOf(e, n)
	}
	res.LearnSec = boundary.Sub(start).Seconds()
	res.AggSec = time.Since(boundary).Seconds()
	return res, nil
}

// consensusCheck tests Algorithm 2's end condition, reusing its table lists
// from round to round.
type consensusCheck struct {
	outs, ins []*qlearn.Table
}

// holds reports whether every node's φ^out is qlearn.Identical to every
// other's, and every node's φ^in too.
func (c *consensusCheck) holds(e *sim.Engine) bool {
	c.outs, c.ins = c.outs[:0], c.ins[:0]
	for _, n := range e.Nodes() {
		t := TablesOf(e, n)
		c.outs, c.ins = append(c.outs, t.Out), append(c.ins, t.In)
	}
	return qlearn.Identical(c.outs) && qlearn.Identical(c.ins)
}

// SharedTables collapses a pretraining result into one Q store: the store of
// the node with the largest table (post-convergence they are identical, so
// any maximal holder works). It returns an error when no node learned
// anything.
func SharedTables(res *PretrainResult) (*NodeTables, error) {
	var best *NodeTables
	for _, t := range res.Tables {
		if t == nil {
			continue
		}
		if best == nil || t.Out.Len()+t.In.Len() > best.Out.Len()+best.In.Len() {
			best = t
		}
	}
	if best == nil || best.Out.Len()+best.In.Len() == 0 {
		return nil, fmt.Errorf("glap: pretraining produced no Q-values")
	}
	return best, nil
}
