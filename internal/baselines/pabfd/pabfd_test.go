package pabfd

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

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

func install(t *testing.T, cl *dc.Cluster, seed uint64) (*sim.Engine, *Controller) {
	t.Helper()
	e := sim.NewEngine(len(cl.PMs), seed)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := Install(e, b)
	ctrl.Period = 1 // deterministic tests step every round
	return e, ctrl
}

// mad and median are the retired sort-based Median Absolute Deviation, kept
// as the oracle the controller's sorted window must reproduce bit for bit.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		d := x - m
		if d < 0 {
			d = -d
		}
		dev[i] = d
	}
	return median(dev)
}

func median(xs []float64) float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// oracleThreshold is threshold over the sort-based MAD of fifo.
func oracleThreshold(c *Controller, fifo []float64) float64 {
	if len(fifo) < 10 {
		return c.FallbackThreshold
	}
	t := 1 - c.Safety*mad(fifo)
	if t < 0.4 {
		t = 0.4
	}
	if t > 1 {
		t = 1
	}
	return t
}

// windowController is a one-host controller whose window holds size samples.
func windowController(size int) *Controller {
	return &Controller{Safety: 2.5, FallbackThreshold: 0.8, HistoryLen: size, wins: newWindows(1, size)}
}

func TestMedianAndMAD(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("median even = %g", got)
	}
	// MAD of {1,2,3,4,5}: median 3, deviations {2,1,0,1,2}, MAD = 1.
	if got := mad([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Fatalf("mad = %g", got)
	}
	// MAD is robust: one huge outlier barely moves it.
	if got := mad([]float64{1, 2, 3, 4, 1000}); got > 2 {
		t.Fatalf("mad with outlier = %g", got)
	}
}

func TestThresholdBounds(t *testing.T) {
	c := windowController(20)
	// Short history: fallback.
	c.wins[0].record(0.5)
	c.wins[0].record(0.5)
	if got := c.threshold(0); got != 0.8 {
		t.Fatalf("short-history threshold = %g", got)
	}
	// Stable history: MAD ~ 0, threshold ~ 1 (the robust-statistic trap
	// that lets PABFD pack to saturation).
	for i := 0; i < 18; i++ {
		c.wins[0].record(0.5)
	}
	if got := c.threshold(0); math.Abs(got-1) > 1e-9 {
		t.Fatalf("stable-history threshold = %g, want 1", got)
	}
	// Wild history: every stable sample evicted, floored at 0.4.
	for i := 0; i < 20; i++ {
		c.wins[0].record(float64(i%2) * 0.9)
	}
	if got := c.threshold(0); got < 0.4-1e-9 {
		t.Fatalf("threshold below floor: %g", got)
	}
}

// TestMADWindowMatchesSort drives random sample sequences through windows of
// 1 to HistoryLen+10 samples. Half the values come from a coarse grid, so
// exact ties, tied medians and evictions of a duplicated value all occur.
// After every sample the window must hold the FIFO's last samples, its MAD
// must equal the sort-based oracle's bit for bit, and so must the threshold.
func TestMADWindowMatchesSort(t *testing.T) {
	rng := sim.NewRNG(11)
	for size := 1; size <= 30+10; size++ {
		c := windowController(size)
		var fifo []float64
		for step := 0; step < 20*size+50; step++ {
			u := rng.Float64() * 1.2
			if rng.Intn(2) == 0 {
				u = float64(rng.Intn(6)) / 5
			}
			c.wins[0].record(u)
			if fifo = append(fifo, u); len(fifo) > size {
				fifo = fifo[1:]
			}
			w := &c.wins[0]
			if !slices.Equal(w.sorted, sortedCopy(fifo)) {
				t.Fatalf("size %d step %d: sorted window %v, FIFO %v", size, step, w.sorted, fifo)
			}
			if got, want := w.mad(), mad(fifo); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("size %d step %d: mad %v, sort-based %v (FIFO %v)", size, step, got, want, fifo)
			}
			if got, want := c.threshold(0), oracleThreshold(c, fifo); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("size %d step %d: threshold %v, sort-based %v", size, step, got, want)
			}
		}
	}
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s
}

func TestConsolidatesUnderload(t *testing.T) {
	cl := constCluster(t, 12, 12, 0.2, 0.15)
	e, _ := install(t, cl, 1)
	e.RunRounds(10)
	if cl.ActivePMs() >= 12 {
		t.Fatalf("no consolidation: %d active", cl.ActivePMs())
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMitigatesOverload(t *testing.T) {
	cl := constCluster(t, 3, 6, 1.0, 0.2)
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
	e, _ := install(t, cl, 2)
	e.RunRounds(3)
	if cl.Overloaded(cl.PMs[0]) {
		t.Fatalf("controller failed to mitigate: %v", cl.CurUtil(cl.PMs[0]))
	}
}

func TestPowersOffEmptyHosts(t *testing.T) {
	cl := constCluster(t, 6, 4, 0.3, 0.2)
	e, _ := install(t, cl, 3)
	e.RunRounds(3)
	for _, pm := range cl.PMs {
		if pm.On() && pm.NumVMs() == 0 {
			t.Fatalf("PM %d empty but still on", pm.ID)
		}
	}
}

func TestReactivatesWhenNeeded(t *testing.T) {
	// Controller must power a host back on when no active host can absorb
	// an overload-relief migration. Build: 2 PMs, both packed to the brim,
	// then overload one; a third (empty, off) PM is the only escape.
	cl := constCluster(t, 3, 11, 1.0, 0.2)
	// PM2 empty and off; PMs 0,1 hold the VMs: 6 on PM0 (overloaded), 5 on
	// PM1 (2500/2660, no headroom for a 500-MIPS VM).
	for i, vm := range cl.VMs {
		dst := cl.PMs[i%2]
		if vm.Host() != dst.ID {
			if err := cl.Migrate(vm, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	e := sim.NewEngine(3, 4)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	// Empty PM 2 and power it off before the controller starts.
	if cl.PMs[2].NumVMs() != 0 {
		t.Fatal("setup: PM 2 should be empty")
	}
	if err := b.PowerOff(2); err != nil {
		t.Fatal(err)
	}
	ctrl := Install(e, b)
	ctrl.Period = 1
	e.RunRounds(3)
	if cl.Overloaded(cl.PMs[0]) && !cl.PMs[2].On() {
		t.Fatal("controller neither mitigated overload nor reactivated a host")
	}
}

func TestPeriodSkipsRounds(t *testing.T) {
	cl := constCluster(t, 6, 4, 0.2, 0.15)
	e := sim.NewEngine(6, 5)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := Install(e, b)
	ctrl.Period = 100 // only round 0 triggers
	steps := 0
	e.BeforeRound(func(e *sim.Engine, round int) {
		// Count controller activity indirectly via history growth.
		if ctrl.wins != nil && len(ctrl.wins[0].sorted) > steps {
			steps = len(ctrl.wins[0].sorted)
		}
	})
	e.RunRounds(5)
	if steps > 1 {
		t.Fatalf("controller ran %d times, want 1", steps)
	}
}
