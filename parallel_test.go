package glapsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/sim"
)

// TestWorkerCountDifferential is the headline invariant of the fork-join
// layer: for each of the six policies, the full Series fingerprint must be
// byte-identical between Workers=1 (fully sequential) and Workers=8
// (explicit fan-out). CI also runs this under -race, which turns it into a
// data-race check on every parallelized stage at once.
func TestWorkerCountDifferential(t *testing.T) {
	for _, p := range allPolicies {
		p := p
		t.Run(string(p), func(t *testing.T) {
			run := func(workers int) string {
				x := Experiment{
					PMs: 20, Ratio: 2, Rounds: 40, Seed: 7, Policy: p,
					GLAP:    fastGLAP(),
					Workers: workers,
				}
				res, err := Run(x)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256([]byte(serializeSeries(res)))
				return hex.EncodeToString(sum[:])
			}
			seq, par := run(1), run(8)
			if seq != par {
				t.Fatalf("policy %s: Series fingerprint differs between Workers=1 (%s) and Workers=8 (%s)", p, seq, par)
			}
		})
	}
}

// TestWorkerCountMatchesGolden ties the differential to the pinned golden:
// the golden experiment run with explicit workers must still produce the
// pinned fingerprint, so the default (auto) path and the parallel path are
// the same simulation.
func TestWorkerCountMatchesGolden(t *testing.T) {
	x := goldenExperiment()
	x.Workers = 8
	res, err := Run(x)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(serializeSeries(res)))
	if got := hex.EncodeToString(sum[:]); got != goldenSeriesHash {
		t.Fatalf("golden fingerprint with Workers=8: got %s, want %s", got, goldenSeriesHash)
	}
}

// TestWorkerCountPipelineDifferential is the round pipeline's facade
// differential: with Workers 1 nothing runs beside the caller and every
// sample is synthesised where it is used; with 2, 8 and auto the next round's
// samples are prefetched on a helper goroutine whenever a round's passes are
// sequential. The run must be the same program — series fingerprint and final
// cluster state bit for bit, placement invariants after every round — for all
// six policies under the inputs that reach the sample path differently: VM
// arrivals and departures, PM crashes that strand VMs into the arrival path,
// mixed hardware, a run longer than its trace (the streams wrap and seek
// backward), and messages with latency and loss. CI also runs it under -race
// and with GOMAXPROCS=1 (the no-free-core path, together with the golden).
func TestWorkerCountPipelineDifferential(t *testing.T) {
	const traceRounds = 25
	variants := []struct {
		name  string
		only  Policy // "" = every policy
		apply func(x *Experiment)
		crash bool
	}{
		{name: "plain", apply: func(x *Experiment) {}},
		{name: "churn", apply: func(x *Experiment) { x.VMChurn = 0.2 }},
		{name: "crash", apply: func(x *Experiment) {}, crash: true},
		{name: "hetero", apply: func(x *Experiment) { x.Heterogeneous = true }},
		{name: "wrap", apply: func(x *Experiment) { x.Rounds = 2*traceRounds - 10 }},
		{name: "lossy", only: PolicyGLAPAsync, apply: func(x *Experiment) { x.Net = NetConfig{Latency: 30, DropProb: 0.1} }},
	}
	for _, p := range allPolicies {
		for _, v := range variants {
			if v.only != "" && v.only != p {
				continue
			}
			t.Run(string(p)+"/"+v.name, func(t *testing.T) {
				x := smallExperiment(p)
				x.Rounds = traceRounds
				v.apply(&x)
				var want string
				for _, workers := range []int{1, 2, 8, 0} {
					x.Workers = workers
					got := pipelineRun(t, x, traceRounds, v.crash)
					if workers == 1 {
						want = got
					} else if got != want {
						t.Fatalf("Workers=%d differs from Workers=1:\n%s", workers, firstDiff(want, got))
					}
				}
			})
		}
	}
}

// pipelineRun is Run with a trace of traceRounds rounds, CheckInvariants after
// every round and, optionally, a crash/recovery schedule; it returns the
// series and the final cluster state rendered bit-exactly.
func pipelineRun(t *testing.T, x Experiment, traceRounds int, crash bool) string {
	t.Helper()
	xw := x
	xw.Rounds = traceRounds
	w, err := workloadFor(xw)
	if err != nil {
		t.Fatal(err)
	}
	s := testStack(t, x, w)
	c, e := s.c, s.e
	crashes := 0
	if crash {
		plan := sim.GenerateFaults(sim.NewRNG(deriveSeed(x.Seed, seedFaults)), x.PMs, x.Rounds, x.PMs/4, 5)
		// A consolidating policy powers machines off ahead of the schedule; a
		// crash planned for a dark machine hits the first powered one instead.
		hit := map[int]int{}
		plan.Install(e, func(e *sim.Engine, ev sim.FaultEvent) {
			if !ev.Up {
				victim := ev.Node
				for id := 0; !c.PMs[victim].On() && id < len(c.PMs); id++ {
					if c.PMs[id].On() {
						victim = id
					}
				}
				if _, err := c.CrashPM(c.PMs[victim]); err != nil {
					return // the whole fleet is dark
				}
				e.SetUp(e.Node(victim), false)
				hit[ev.Node] = victim
				crashes++
			} else if victim, ok := hit[ev.Node]; ok && !c.PMs[victim].On() {
				if err := c.RecoverPM(c.PMs[victim]); err != nil {
					t.Fatal(err)
				}
				e.SetUp(e.Node(victim), true)
			}
		})
	}
	e.Observe(func(e *sim.Engine, r int) {
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("Workers=%d round %d: %v", x.Workers, r, err)
		}
	})
	s.run()
	if crash && crashes == 0 {
		t.Fatal("setup: the fault plan crashed no powered PM")
	}

	var b strings.Builder
	b.WriteString(serializeSeries(&Result{Series: s.series}))
	bits := math.Float64bits
	for _, vm := range c.VMs {
		cur, avg := vm.CurDemand(), vm.AvgDemand()
		fmt.Fprintf(&b, "vm%d host=%d cur=%016x/%016x avg=%016x/%016x migs=%d deg=%016x\n", vm.ID, vm.Host(),
			bits(cur[dc.CPU]), bits(cur[dc.Mem]), bits(avg[dc.CPU]), bits(avg[dc.Mem]),
			vm.MigrationCount(), bits(vm.DegradationRatio()))
	}
	for _, pm := range c.PMs {
		fmt.Fprintf(&b, "pm%d on=%v vms=%v act=%016x over=%016x e=%016x\n", pm.ID, pm.On(), pm.VMIDs(),
			bits(pm.ActiveSeconds()), bits(pm.OverloadSeconds()), bits(pm.EnergyJ()))
	}
	fmt.Fprintf(&b, "failed=%d present=%d\n", c.FailedPlacements, c.PresentVMs())
	return b.String()
}

// firstDiff returns the first line at which two dumps differ. Both dumps end
// in the same summary line, so neither is a prefix of the other.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i, la[i], lb[i])
		}
	}
	return fmt.Sprintf("%d lines against %d", len(la), len(lb))
}
