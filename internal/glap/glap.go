package glap

import (
	"fmt"
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
	// phase. After convergence they are identical (up to stragglers).
	Tables []*NodeTables
	// Convergence is the mean pairwise cosine similarity of φ^io sampled
	// at the end of each measured round: first the learning-phase (WOG)
	// rounds, then the aggregation-phase (WG) rounds.
	Convergence []float64
	// ConvergenceRound[i] is the round Convergence[i] was measured at.
	ConvergenceRound []int
	// LearnRounds and AggRounds echo the phase split used.
	LearnRounds, AggRounds int
	// LearnSec and AggSec attribute the run's wall time to the two phases:
	// rounds [0, LearnRounds) (Algorithm 1) and the rest (Algorithm 2 plus
	// result collection). The split lets the scale benchmark report which
	// phase a regression lives in without a profiler.
	LearnSec, AggSec float64
}

// FinalSimilarity returns the last measured convergence value (1 when
// nothing was measured).
func (r *PretrainResult) FinalSimilarity() float64 {
	if len(r.Convergence) == 0 {
		return 1
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
	// CyclonViewSize / CyclonShuffleLen configure the overlay
	// (defaults 20 / 8).
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
// state calibration depends on. cl is consumed by the call; build the
// comparison cluster separately so every policy starts from the same
// initial placement.
func Pretrain(cfg Config, cl *dc.Cluster, seed uint64, opts PretrainOptions) (*PretrainResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := sim.NewEngine(len(cl.PMs), seed)
	e.Workers = opts.Workers
	cl.Workers = opts.Workers
	b, err := policy.Bind(e, cl)
	if err != nil {
		return nil, err
	}
	e.Register(cyclon.New(opts.CyclonViewSize, opts.CyclonShuffleLen))
	learn := &LearnProtocol{Cfg: cfg, B: b}
	e.RegisterWindow(learn, 1, 0, cfg.LearnRounds-1)
	agg := &AggProtocol{}
	e.RegisterWindow(agg, 1, cfg.LearnRounds, cfg.LearnRounds+cfg.AggRounds-1)

	res := &PretrainResult{LearnRounds: cfg.LearnRounds, AggRounds: cfg.AggRounds}
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
			// F32 stacks measure over the narrow buffers directly; both
			// branches consume one pair-draw sequence from measureRNG.
			var sim1 float64
			if cfg.Precision == qlearn.F32 {
				sim1 = gossip.MeanPairwiseCosineDense32(e, IOVectorDense32, pairs, measureRNG)
			} else {
				sim1 = gossip.MeanPairwiseCosineDense(e, IOVectorDense, pairs, measureRNG)
			}
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

	e.RunRounds(cfg.LearnRounds + cfg.AggRounds)

	res.Tables = make([]*NodeTables, e.N())
	for i, n := range e.Nodes() {
		res.Tables[i] = TablesOf(e, n)
	}
	res.LearnSec = boundary.Sub(start).Seconds()
	res.AggSec = time.Since(boundary).Seconds()
	return res, nil
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

// InstallConsolidation registers the Cyclon overlay and the consolidation
// component on engine e, bound to b's cluster, using the given pre-trained
// Q store for every node. cfg only contributes runtime switches (currently
// CurrentDemandOnly); learning parameters have already been baked into the
// tables. It returns the consolidation protocol.
func InstallConsolidation(e *sim.Engine, b *policy.Binding, tables *NodeTables, cfg Config, opts PretrainOptions) *ConsolidateProtocol {
	e.Register(cyclon.New(opts.CyclonViewSize, opts.CyclonShuffleLen))
	cons := &ConsolidateProtocol{
		B:                 b,
		Tables:            func(e *sim.Engine, n *sim.Node) *NodeTables { return tables },
		CurrentDemandOnly: cfg.CurrentDemandOnly,
	}
	e.Register(cons)
	return cons
}

// InstallOnline registers the full GLAP stack on a single engine: Cyclon
// always on, the learning phase for cfg.LearnRounds rounds, the aggregation
// phase for cfg.AggRounds rounds, and the consolidation component from the
// end of pre-training onward — the paper's continuous deployment where the
// learning component periodically feeds the consolidation component.
// Consolidation rounds therefore begin at round cfg.LearnRounds+cfg.AggRounds.
func InstallOnline(e *sim.Engine, b *policy.Binding, cfg Config, opts PretrainOptions) (*ConsolidateProtocol, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e.Register(cyclon.New(opts.CyclonViewSize, opts.CyclonShuffleLen))
	learn := &LearnProtocol{Cfg: cfg, B: b}
	e.RegisterWindow(learn, 1, 0, cfg.LearnRounds-1)
	e.RegisterWindow(&AggProtocol{}, 1, cfg.LearnRounds, cfg.LearnRounds+cfg.AggRounds-1)
	cons := &ConsolidateProtocol{B: b, CurrentDemandOnly: cfg.CurrentDemandOnly}
	e.RegisterWindow(cons, 1, cfg.LearnRounds+cfg.AggRounds, -1)
	return cons, nil
}
