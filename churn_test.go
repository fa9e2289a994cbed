package glapsim

// Failure-injection and churn tests: the distributed protocols must keep
// the cluster consistent and keep making progress when machine membership
// changes under them mid-run.

import (
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
)

// buildGLAPRun prepares a GLAP consolidation run over freshly pre-trained
// tables and returns its engine and binding, so tests can drive rounds
// manually and inject events between them.
func buildGLAPRun(t *testing.T, x Experiment) (*sim.Engine, *policy.Binding) {
	t.Helper()
	w, err := workloadFor(x)
	if err != nil {
		t.Fatal(err)
	}
	s := testStack(t, x, w)
	return s.e, s.b
}

func TestChurnCapacityExpansion(t *testing.T) {
	// Consolidate, then power every switched-off PM back on (capacity
	// expansion / maintenance return). The protocol must re-absorb the
	// idle machines: invariants hold throughout and the active count
	// shrinks again.
	x := smallExperiment(PolicyGLAP)
	x.PMs = 30
	x.Rounds = 120
	e, b := buildGLAPRun(t, x)

	e.RunRounds(50)
	cl := b.C
	consolidated := cl.ActivePMs()
	if consolidated >= x.PMs {
		t.Fatal("setup: no consolidation before churn")
	}
	for _, pm := range cl.PMs {
		if !pm.On() {
			b.PowerOn(pm.ID)
		}
	}
	if cl.ActivePMs() != x.PMs {
		t.Fatal("expansion failed")
	}
	e.RunRounds(60)
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := cl.ActivePMs(); got > consolidated+4 {
		t.Fatalf("re-consolidation stalled: %d active, was %d before churn", got, consolidated)
	}
}

func TestChurnOverlaySurvivesMassPowerOff(t *testing.T) {
	// Aggressively power off empty PMs by hand mid-run; the Cyclon views
	// of the survivors must purge dead entries and consolidation must
	// continue without selecting dead peers (no panics, invariants hold).
	x := smallExperiment(PolicyGLAP)
	x.PMs = 30
	x.Rounds = 100
	e, b := buildGLAPRun(t, x)

	e.RunRounds(20)
	cl := b.C
	killed := 0
	for _, pm := range cl.PMs {
		if pm.On() && pm.NumVMs() == 0 && killed < 10 {
			if b.PowerOff(pm.ID) == nil {
				killed++
			}
		}
	}
	e.RunRounds(60)
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, n := range e.Nodes() {
		if !n.Up() {
			continue
		}
		for _, entry := range cyclon.ViewOf(e, n).Entries() {
			if !e.Node(entry.Peer).Up() {
				// Entries pointing at dead nodes may linger briefly but
				// after 60 rounds of shuffling they must be gone.
				t.Fatalf("node %d still references dead node %d", n.ID, entry.Peer)
			}
		}
	}
}

func TestLongRunTraceWrapAround(t *testing.T) {
	// Run 1.5x the trace length: the workload wraps, nothing panics,
	// metrics keep accumulating monotonically.
	x := smallExperiment(PolicyGRMP)
	x.Rounds = 40 // workload generated for 40 rounds
	w, err := workloadFor(x)
	if err != nil {
		t.Fatal(err)
	}
	x.Workload = w
	x.Rounds = 60 // but run 60
	res, err := Run(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series.Samples) != 60 {
		t.Fatalf("%d samples", len(res.Series.Samples))
	}
	var prev int64 = -1
	for _, s := range res.Series.Samples {
		if s.Migrations < prev {
			t.Fatal("cumulative migrations decreased")
		}
		prev = s.Migrations
	}
	if err := res.Cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsEveryRoundAllPolicies(t *testing.T) {
	// Structural failure injection: verify the placement invariants after
	// every single round for each policy, not just at the end.
	for _, p := range Policies {
		p := p
		t.Run(string(p), func(t *testing.T) {
			x := smallExperiment(p)
			x.Rounds = 30
			w, err := workloadFor(x)
			if err != nil {
				t.Fatal(err)
			}
			// Assemble the run as Run does, observing every round.
			s := testStack(t, x, w)
			s.e.Observe(func(e *sim.Engine, round int) {
				if err := s.c.CheckInvariants(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			})
			s.run()
		})
	}
}
