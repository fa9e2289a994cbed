package glap

import (
	"fmt"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
)

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
// pre-training cycle completes. The overlay is Cyclon at cyclon.New's default
// sizes: view 20, shuffle 10.
func InstallContinuous(e *sim.Engine, b *policy.Binding, cfg Config, relearnEvery int) (*ConsolidateProtocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	pretrainLen := cfg.LearnRounds + cfg.AggRounds
	if relearnEvery < pretrainLen {
		return nil, fmt.Errorf("glap: relearnEvery %d shorter than one learning cycle (%d)", relearnEvery, pretrainLen)
	}
	e.Register(cyclon.New(0, 0))
	e.RegisterWhen(&LearnProtocol{Cfg: cfg, B: b}, func(r int) bool {
		return r%relearnEvery < cfg.LearnRounds
	})
	e.RegisterWhen(&AggProtocol{}, func(r int) bool {
		phase := r % relearnEvery
		return phase >= cfg.LearnRounds && phase < pretrainLen
	})
	cons := &ConsolidateProtocol{B: b, CurrentDemandOnly: cfg.CurrentDemandOnly}
	e.RegisterWindow(cons, 1, pretrainLen, -1)
	return cons, nil
}
