package ecocloud

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

func constCluster(t *testing.T, pms, vms int, cpu, mem float64) *dc.Cluster {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("vm,round,cpu,mem\n")
	for vm := 0; vm < vms; vm++ {
		for r := 0; r < 5; r++ {
			fmt.Fprintf(&b, "%d,%d,%g,%g\n", vm, r, cpu, mem)
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

func install(t *testing.T, cl *dc.Cluster, seed uint64) (*sim.Engine, *Protocol) {
	t.Helper()
	e := sim.NewEngine(len(cl.PMs), seed)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	e.Register(cyclon.New(6, 3))
	p := New(b)
	e.Register(p)
	return e, p
}

func TestAssentProbShape(t *testing.T) {
	// Zero at/above T2.
	if assentProb(0.8) != 0 || assentProb(0.95) != 0 {
		t.Fatal("assent must be zero at/above T2")
	}
	// Small bootstrap probability at zero utilisation.
	if got := assentProb(0); got <= 0 || got > 0.1 {
		t.Fatalf("assent at zero = %g", got)
	}
	// Peak at T2*p/(p+1) = 0.6; normalised to 1.
	if got := assentProb(0.6); got < 0.999 || got > 1.001 {
		t.Fatalf("assent at peak = %g, want ~1", got)
	}
	// Monotone rising toward the peak, in [0,1] everywhere.
	prev := 0.0
	for x := 0.05; x < 0.6; x += 0.05 {
		v := assentProb(x)
		if v < 0 || v > 1 {
			t.Fatalf("assent(%g) = %g out of range", x, v)
		}
		if v < prev {
			t.Fatalf("assent not monotone before peak at %g", x)
		}
		prev = v
	}
	// Falling after the peak.
	if assentProb(0.75) >= assentProb(0.6) {
		t.Fatal("assent should fall after the peak")
	}
}

func TestConsolidatesUnderloaded(t *testing.T) {
	// Every PM far below T1: evacuations must shrink the active set.
	cl := constCluster(t, 12, 12, 0.2, 0.15)
	e, _ := install(t, cl, 1)
	e.RunRounds(60)
	if cl.ActivePMs() >= 12 {
		t.Fatalf("no consolidation: %d active", cl.ActivePMs())
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDestinationsStayBelowT2(t *testing.T) {
	cl := constCluster(t, 10, 20, 0.5, 0.3)
	e, _ := install(t, cl, 2)
	e.RunRounds(40)
	for _, pm := range cl.PMs {
		if !pm.On() {
			continue
		}
		u := cl.CurUtil(pm)
		if u[dc.CPU] > 0.8+1e-9 || u[dc.Mem] > 0.8+1e-9 {
			t.Fatalf("PM %d beyond T2: %v", pm.ID, u)
		}
	}
}

func TestShedsHighLoadEventually(t *testing.T) {
	cl := constCluster(t, 4, 8, 1.0, 0.2)
	for _, vm := range cl.VMs {
		if vm.Host() != 0 {
			if err := cl.Migrate(vm, cl.PMs[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !cl.Overloaded(cl.PMs[0]) {
		t.Fatal("setup: PM 0 should be overloaded")
	}
	e, _ := install(t, cl, 3)
	e.RunRounds(40) // probabilistic shedding needs several rounds
	if cl.Overloaded(cl.PMs[0]) {
		t.Fatalf("PM 0 still overloaded: %v", cl.CurUtil(cl.PMs[0]))
	}
}

func TestNoActionInComfortZone(t *testing.T) {
	// Utilisation between T1 and T2 on every PM: EcoCloud does nothing.
	// 4 VMs/PM at 0.6 CPU -> util 4*0.6*500/2660 = 0.451.
	cl := constCluster(t, 3, 12, 0.6, 0.3)
	e, _ := install(t, cl, 4)
	e.RunRounds(20)
	if cl.Migrations != 0 {
		t.Fatalf("%d migrations inside the comfort zone", cl.Migrations)
	}
}
