package glap

import (
	"fmt"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/par"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
)

// phased wraps a protocol and runs it only on rounds where active(round)
// holds, which lets the learning and aggregation phases recur periodically
// while the engine's registration windows stay simple.
type phased struct {
	inner  sim.Protocol
	active func(round int) bool
}

func (p *phased) Name() string                         { return p.inner.Name() }
func (p *phased) Setup(e *sim.Engine, n *sim.Node) any { return p.inner.Setup(e, n) }
func (p *phased) Round(e *sim.Engine, n *sim.Node, r int) {
	if p.active(r) {
		p.inner.Round(e, n, r)
	}
}

// Parallelizable delegates to the wrapped protocol, so that a phased learning
// component still fans out.
func (p *phased) Parallelizable() bool {
	pr, ok := p.inner.(sim.ParallelRound)
	return ok && pr.Parallelizable()
}

// Lanes and RunLane delegate the lane path to the wrapped protocol.
func (p *phased) Lanes() int {
	if lp, ok := p.inner.(sim.LaneRound); ok {
		return lp.Lanes()
	}
	return 0
}

func (p *phased) RunLane(e *sim.Engine, lane int, pairs []par.Pair, r int) {
	p.inner.(sim.LaneRound).RunLane(e, lane, pairs, r)
}

// DrawPair delegates, returning no pair on inactive rounds so the lane path
// reproduces the phased gating exactly (no draws, no exchanges).
func (p *phased) DrawPair(e *sim.Engine, n *sim.Node, r int) int {
	if !p.active(r) {
		return -1
	}
	return p.inner.(sim.LaneRound).DrawPair(e, n, r)
}

// InstallContinuous registers the full GLAP stack in the paper's continuous
// deployment: the two-phase learning protocol re-runs on a fixed interval —
// "the learning component runs as required by a predefined policy e.g. ...
// based on a fixed time interval" (Section IV-B) — while the consolidation
// component keeps operating throughout on the previous Q-values (the
// "continue using the previous Q-values" configuration).
//
// Within every relearnEvery-round cycle, rounds [0, LearnRounds) run
// Algorithm 1 and rounds [LearnRounds, LearnRounds+AggRounds) run
// Algorithm 2. relearnEvery must therefore be at least
// LearnRounds+AggRounds. Consolidation starts after the first full
// pre-training cycle completes.
func InstallContinuous(e *sim.Engine, b *policy.Binding, cfg Config, relearnEvery int, opts PretrainOptions) (*ConsolidateProtocol, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pretrainLen := cfg.LearnRounds + cfg.AggRounds
	if relearnEvery < pretrainLen {
		return nil, fmt.Errorf("glap: relearnEvery %d shorter than one learning cycle (%d)", relearnEvery, pretrainLen)
	}
	e.Register(cyclon.New(opts.CyclonViewSize, opts.CyclonShuffleLen))
	learn := &LearnProtocol{Cfg: cfg, B: b}
	e.Register(&phased{
		inner:  learn,
		active: func(r int) bool { return r%relearnEvery < cfg.LearnRounds },
	})
	e.Register(&phased{
		inner: &AggProtocol{},
		active: func(r int) bool {
			phase := r % relearnEvery
			return phase >= cfg.LearnRounds && phase < pretrainLen
		},
	})
	cons := &ConsolidateProtocol{B: b, CurrentDemandOnly: cfg.CurrentDemandOnly}
	e.RegisterWindow(&phased{
		inner:  cons,
		active: func(r int) bool { return r >= pretrainLen },
	}, 1, 0, -1)
	return cons, nil
}
