// Package ecocloud implements the EcoCloud baseline (Mastroianni, Meo,
// Papuzzo, "Probabilistic consolidation of virtual machines in
// self-organizing cloud data centers", IEEE TCC 2013): a gradual,
// probabilistic consolidation scheme with static lower/upper thresholds
// (the paper configures T1 = 0.3, T2 = 0.8). PMs below T1 probabilistically
// attempt to evacuate; PMs above T2 shed load; candidate destinations assent
// to a migration through a Bernoulli trial whose success probability peaks
// just below T2, so nearly-full servers fill first.
package ecocloud

import (
	"math"

	"github.com/glap-sim/glap/internal/baselines"
	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
)

// ProtocolName registers the EcoCloud baseline.
const ProtocolName = "ecocloud"

// Protocol is the EcoCloud baseline.
type Protocol struct {
	B *policy.Binding
	// T1 and T2 are the lower and upper utilisation thresholds.
	T1, T2 float64
	// Shape is the exponent p of the assent function f(x) ∝ x^p·(T2−x);
	// larger values concentrate acceptance near T2. EcoCloud uses p = 3.
	Shape float64
	// Candidates is the number of peers polled per migration attempt
	// (EcoCloud broadcasts; the gossip port polls a view sample).
	Candidates int

	rng sim.BoundRNG
	// vms and keyed are shed's and evacuate's buffers, reused across calls:
	// Round is a sequential pass and every run builds its own Protocol.
	vms   []*dc.VM
	keyed []baselines.KeyedVM
}

// New returns the baseline with the paper's configuration (T1=0.3, T2=0.8).
func New(b *policy.Binding) *Protocol {
	return &Protocol{B: b, T1: 0.3, T2: 0.8, Shape: 3, Candidates: 8}
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return ProtocolName }

// Setup implements sim.Protocol.
func (p *Protocol) Setup(e *sim.Engine, n *sim.Node) any {
	return struct{}{}
}

// assentProb is the normalised acceptance probability for a destination at
// CPU utilisation x: zero outside (0, T2), maximal at x = T2·p/(p+1).
func (p *Protocol) assentProb(x float64) float64 {
	if x <= 0 || x >= p.T2 {
		// A completely empty candidate may still assent with a small
		// probability so evacuations can bootstrap onto already-active
		// but idle machines; EcoCloud handles this via its coordinator.
		if x <= 0 {
			return 0.05
		}
		return 0
	}
	xm := p.T2 * p.Shape / (p.Shape + 1)
	fmax := math.Pow(xm, p.Shape) * (p.T2 - xm)
	return math.Pow(x, p.Shape) * (p.T2 - x) / fmax
}

// Round implements one EcoCloud round for PM n: shed when above T2,
// probabilistically evacuate when below T1.
func (p *Protocol) Round(e *sim.Engine, n *sim.Node, round int) {
	rng := p.rng.For(e, 0xec0c1d)
	c := p.B.C
	pm := p.B.PM(n)
	if !pm.On() || pm.NumVMs() == 0 {
		return
	}
	u := c.CurUtil(pm)[dc.CPU]
	switch {
	case u > p.T2:
		// Migration out of a high-load state is itself probabilistic in
		// EcoCloud (a Bernoulli trial whose success probability grows with
		// the excess), which avoids shedding cascades but lets overload
		// persist for a while — the behaviour the paper's Figure 6 shows.
		if rng.Bernoulli(math.Min(1, (u-p.T2)/(1-p.T2))) {
			p.shed(e, n, pm)
		}
	case u < p.T1:
		// Migration probability grows as the server empties:
		// 1 − u/T1.
		if rng.Bernoulli(1 - u/p.T1) {
			p.evacuate(e, n, pm)
		}
	}
}

// shed migrates the smallest VMs away until utilisation drops to T2.
func (p *Protocol) shed(e *sim.Engine, n *sim.Node, pm *dc.PM) {
	c := p.B.C
	for c.CurUtil(pm)[dc.CPU] > p.T2 {
		p.vms = pm.AppendVMs(p.vms[:0])
		if len(p.vms) == 0 {
			return
		}
		// Smallest memory first: cheapest migrations to exit overload.
		p.keyed = baselines.AppendKeyed(p.keyed[:0], p.vms, dc.Mem)
		baselines.SortAscending(p.keyed)
		moved := false
		for _, k := range p.keyed {
			vm := k.VM
			if dst := p.findAssenting(e, n, vm); dst != nil {
				if c.Migrate(vm, dst) == nil {
					moved = true
					break
				}
			}
		}
		if !moved {
			return
		}
	}
}

// evacuate tries to move every VM off pm; only if all fit elsewhere does the
// PM switch off (EcoCloud aborts partial evacuations at the coordinator; the
// gossip port moves VMs greedily and keeps the PM on when stuck, which only
// makes this baseline *less* aggressive).
func (p *Protocol) evacuate(e *sim.Engine, n *sim.Node, pm *dc.PM) {
	c := p.B.C
	p.vms = pm.AppendVMs(p.vms[:0])
	for _, vm := range p.vms {
		dst := p.findAssenting(e, n, vm)
		if dst == nil {
			return
		}
		if c.Migrate(vm, dst) != nil {
			return
		}
	}
	_ = p.B.TryPowerOffIfEmpty(pm.ID)
}

// findAssenting polls up to Candidates peers from the Cyclon view; each
// assents via the Bernoulli trial and must fit the VM's current demand while
// staying at or below T2 on both resources.
func (p *Protocol) findAssenting(e *sim.Engine, n *sim.Node, vm *dc.VM) *dc.PM {
	rng := p.rng.For(e, 0xec0c1d)
	c := p.B.C
	for i := 0; i < p.Candidates; i++ {
		peer := cyclon.SelectPeer(e, n, rng)
		if peer < 0 {
			return nil
		}
		pm := c.PMs[peer]
		if pm.ID == vm.Host() || !pm.On() {
			continue
		}
		u := c.CurUtil(pm)
		after := u.Add(vm.CurAbs().Div(pm.Spec.Capacity))
		if after[dc.CPU] > p.T2 || after[dc.Mem] > p.T2 {
			continue
		}
		if rng.Bernoulli(p.assentProb(u[dc.CPU])) {
			return pm
		}
	}
	return nil
}
