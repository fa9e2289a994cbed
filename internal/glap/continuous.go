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

// PairSharded delegates pair-sharded capability to the wrapped protocol.
func (p *phased) PairSharded() bool {
	pp, ok := p.inner.(sim.PairRound)
	return ok && pp.PairSharded()
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

// DrawPair delegates, returning no pair on inactive rounds so the sharded and
// lane paths reproduce the phased gating exactly (no draws, no exchanges).
func (p *phased) DrawPair(e *sim.Engine, n *sim.Node, r int) int {
	if !p.active(r) {
		return -1
	}
	return p.inner.(sim.PairDrawer).DrawPair(e, n, r)
}

func (p *phased) BeginPairs(e *sim.Engine, r, npairs int) {
	p.inner.(sim.PairRound).BeginPairs(e, r, npairs)
}

func (p *phased) RunPair(e *sim.Engine, a, b *sim.Node, r, idx int) {
	p.inner.(sim.PairRound).RunPair(e, a, b, r, idx)
}

func (p *phased) EndPairs(e *sim.Engine, r int) {
	p.inner.(sim.PairRound).EndPairs(e, r)
}

// InactiveSpan implements sim.QuiescentRound for the phased wrapper: rounds
// gated off by the phase predicate are inert by construction, and active
// rounds delegate to the wrapped protocol's certificate (blocking unless it
// certifies everything from the first active round on). The scan is bounded
// by the phase predicate's period in practice — the first active round ends
// it.
func (p *phased) InactiveSpan(e *sim.Engine, from, to int) int {
	first := -1
	for r := from; r < to; r++ {
		if p.active(r) {
			first = r
			break
		}
	}
	if first < 0 {
		return to - from
	}
	q, ok := p.inner.(sim.QuiescentRound)
	if ok && q.InactiveSpan(e, first, to) >= to-first {
		return to - from
	}
	return first - from
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
