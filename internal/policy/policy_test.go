package policy

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

func testCluster(t *testing.T, pms, vms int) *dc.Cluster {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("vm,round,cpu,mem\n")
	for vm := 0; vm < vms; vm++ {
		for r := 0; r < 5; r++ {
			fmt.Fprintf(&b, "%d,%d,0.3,0.2\n", vm, r)
		}
	}
	set, err := trace.LoadCSV(&b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dc.New(dc.Config{PMs: pms, Workload: set})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(3)
	c.PlaceRandom(rng.Intn)
	return c
}

func TestBindAdvancesWorkload(t *testing.T) {
	cl := testCluster(t, 4, 8)
	e := sim.NewEngine(4, 1)
	if _, err := Bind(e, cl); err != nil {
		t.Fatal(err)
	}
	e.RunRounds(3)
	if cl.Round() != 2 {
		t.Fatalf("cluster at round %d, want 2", cl.Round())
	}
	if cl.PMs[0].ActiveSeconds() != 3*120 {
		t.Fatalf("active seconds %g", cl.PMs[0].ActiveSeconds())
	}
}

func TestBindSizeMismatch(t *testing.T) {
	cl := testCluster(t, 4, 8)
	e := sim.NewEngine(5, 1)
	if _, err := Bind(e, cl); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestPowerOffOnSyncsViews(t *testing.T) {
	cl := testCluster(t, 4, 2)
	e := sim.NewEngine(4, 1)
	b, err := Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	var empty int = -1
	for _, pm := range cl.PMs {
		if pm.NumVMs() == 0 {
			empty = pm.ID
			break
		}
	}
	if empty < 0 {
		t.Fatal("no empty PM in setup")
	}
	if err := b.PowerOff(empty); err != nil {
		t.Fatal(err)
	}
	if cl.PMs[empty].On() || e.Node(empty).Up() {
		t.Fatal("power-off did not sync both views")
	}
	b.PowerOn(empty)
	if !cl.PMs[empty].On() || !e.Node(empty).Up() {
		t.Fatal("power-on did not sync both views")
	}
}

func TestPowerOffRefusesNonEmpty(t *testing.T) {
	cl := testCluster(t, 2, 4)
	e := sim.NewEngine(2, 1)
	b, err := Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	var full int = -1
	for _, pm := range cl.PMs {
		if pm.NumVMs() > 0 {
			full = pm.ID
			break
		}
	}
	if err := b.PowerOff(full); err == nil {
		t.Fatal("expected error powering off non-empty PM")
	}
	if !e.Node(full).Up() {
		t.Fatal("node marked down despite failed power-off")
	}
}

func TestTryPowerOffIfEmpty(t *testing.T) {
	cl := testCluster(t, 3, 2)
	e := sim.NewEngine(3, 1)
	b, err := Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	offCount := 0
	for _, pm := range cl.PMs {
		if b.TryPowerOffIfEmpty(pm.ID) {
			offCount++
		}
	}
	if offCount == 0 {
		t.Fatal("no empty PM was powered off")
	}
	for _, pm := range cl.PMs {
		if pm.NumVMs() > 0 && !pm.On() {
			t.Fatal("non-empty PM powered off")
		}
	}
}

// idleProto is a sequential protocol that does nothing: a pass for the
// engine's look-ahead helper to run beside.
type idleProto struct{}

func (idleProto) Name() string                      { return "idle" }
func (idleProto) Setup(*sim.Engine, *sim.Node) any  { return nil }
func (idleProto) Round(*sim.Engine, *sim.Node, int) {}

// TestBindPrefetchLeavesWorkloadQuiescent: Bind hands a streaming workload's
// next round to the engine's look-ahead helper, which advances the Set's
// per-VM streams from another goroutine. The facade builds the run cluster
// over the pre-training cluster's Set the moment pre-training returns, so the
// Set must be at rest by then — however RunRounds returned. Under -race a
// helper still alive is a reported race with dc.New's round-0 read (a backward
// seek that rewrites the stream) and with the second run's own reads.
func TestBindPrefetchLeavesWorkloadQuiescent(t *testing.T) {
	const pms, ratio, rounds = 6, 3, 12
	set, err := trace.GenerateStreaming(trace.DefaultGenConfig(pms*ratio, rounds, 5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.Generate(trace.DefaultGenConfig(pms*ratio, rounds, 5))
	if err != nil {
		t.Fatal(err)
	}
	run := func(stopAt int) *dc.Cluster {
		c, err := dc.New(dc.Config{PMs: pms, Workload: set})
		if err != nil {
			t.Fatal(err)
		}
		c.PlaceRandom(sim.NewRNG(3).Intn)
		for id, vm := range c.VMs {
			if s := want.At(id, 0); vm.CurDemand() != (dc.Vec{s.CPU, s.Mem}) {
				t.Fatalf("VM %d seeded with %v, want round 0's %v", id, vm.CurDemand(), s)
			}
		}
		e := sim.NewEngine(pms, 1)
		e.Workers = 2 // explicit: a real helper goroutine on any machine
		if _, err := Bind(e, c); err != nil {
			t.Fatal(err)
		}
		e.Register(idleProto{})
		e.Observe(func(e *sim.Engine, r int) {
			for id, vm := range c.VMs {
				if s := want.At(id, r); vm.CurDemand() != (dc.Vec{s.CPU, s.Mem}) {
					t.Fatalf("round %d: VM %d demand %v, want %v", r, id, vm.CurDemand(), s)
				}
			}
			if r == stopAt {
				e.Stop()
			}
		})
		e.RunRounds(rounds)
		return c
	}
	run(-1)         // to the last round, which prefetches nothing
	run(rounds / 2) // Stop with round rounds/2+1 already being prefetched
	run(-1)
}
