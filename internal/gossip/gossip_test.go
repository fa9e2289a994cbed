package gossip

import (
	"math"
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/sim"
)

// average is a push-pull averaging epidemic over CyclonSelector: each round
// every up node picks a peer and both take the mean of their two values. It
// conserves the live nodes' sum exactly as long as the selector only ever
// returns a live peer.
type average struct {
	init func(n *sim.Node) float64
	rng  *sim.RNG
}

func (a *average) Name() string { return "avg" }

func (a *average) Setup(e *sim.Engine, n *sim.Node) any {
	v := a.init(n)
	return &v
}

func (a *average) Round(e *sim.Engine, n *sim.Node, round int) {
	peer := CyclonSelector(e, n, a.rng)
	if peer < 0 {
		return
	}
	if !e.Node(peer).Up() {
		panic("CyclonSelector returned a down peer")
	}
	x, y := valueOf(e, n), valueOf(e, e.Node(peer))
	*x = (*x + *y) / 2
	*y = *x
}

func valueOf(e *sim.Engine, n *sim.Node) *float64 { return e.State("avg", n).(*float64) }

func TestAveragePreservesMass(t *testing.T) {
	// Push-pull averaging over Cyclon peers conserves the sum.
	const n = 16
	e := sim.NewEngine(n, 3)
	e.Register(cyclon.New(8, 4))
	e.Register(&average{init: func(n *sim.Node) float64 { return float64(n.ID * n.ID) }, rng: sim.NewRNG(3)})
	var want float64
	for i := 0; i < n; i++ {
		want += float64(i * i)
	}
	e.RunRounds(25)
	var got float64
	for _, node := range e.Nodes() {
		got += *valueOf(e, node)
	}
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("mass not conserved: %g vs %g", got, want)
	}
}

func TestDeadNodesDoNotGossip(t *testing.T) {
	e := sim.NewEngine(4, 12)
	e.Register(cyclon.New(8, 4))
	e.Register(&average{init: func(n *sim.Node) float64 { return float64(n.ID) }, rng: sim.NewRNG(12)})
	e.SetUp(e.Node(3), false)
	e.RunRounds(30)
	// Node 3's value must be untouched: nobody selects it, it never acts.
	if got := *valueOf(e, e.Node(3)); got != 3 {
		t.Fatalf("dead node value changed to %g", got)
	}
	// Live nodes converge to mean of 0,1,2 = 1.
	for id := 0; id < 3; id++ {
		if got := *valueOf(e, e.Node(id)); math.Abs(got-1) > 0.2 {
			t.Fatalf("node %d converged to %g, want ~1", id, got)
		}
	}
}
