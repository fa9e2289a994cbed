package glapsim

import (
	"strings"
	"testing"

	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/trace"
)

// allPolicies lists the six built-in policies.
var allPolicies = []Policy{PolicyGLAP, PolicyGLAPAsync, PolicyGRMP, PolicyEcoCloud, PolicyPABFD, PolicyNone}

// testStack is Run's assembly for a test that drives or observes the rounds
// itself: pre-training when the policy pre-trains, then prepareStack.
func testStack(t *testing.T, x Experiment, w *trace.Set) *stack {
	t.Helper()
	var shared *glap.NodeTables
	if x.Policy.Pretrains() {
		var err error
		if _, shared, err = pretrain(x, w); err != nil {
			t.Fatal(err)
		}
	}
	s, err := prepareStack(x, w, shared)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCentralizedSpecsSkipOverlay pins that PABFD and None never construct a
// peer-sampling overlay and never pre-train, that the four distributed
// policies sample peers from Cyclon, and that only GLAP's two stacks
// pre-train.
func TestCentralizedSpecsSkipOverlay(t *testing.T) {
	for _, p := range allPolicies {
		overlay, pretrains, ok := p.needs()
		distributed := p != PolicyPABFD && p != PolicyNone
		glapStack := p == PolicyGLAP || p == PolicyGLAPAsync
		if !ok || overlay != distributed || pretrains != glapStack || p.Pretrains() != glapStack {
			t.Fatalf("policy %q: needs() = overlay %v, pretrains %v, ok %v", p, overlay, pretrains, ok)
		}
	}
}

func TestValidateRejectsUnregisteredPolicy(t *testing.T) {
	x := smallExperiment("no-such-policy")
	err := x.Validate()
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("want unknown-policy error, got %v", err)
	}
}

// TestRunPolicyGLAPAsync drives the message-passing transport through the
// public facade: same decision core, real messages with latency and loss,
// and a clean drain (no leaked reservations) before the final measurements.
func TestRunPolicyGLAPAsync(t *testing.T) {
	x := smallExperiment(PolicyGLAPAsync)
	x.Net = NetConfig{Latency: 5, DropProb: 0.1}
	res, err := Run(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series.Samples) != 40 {
		t.Fatalf("%d samples, want 40", len(res.Series.Samples))
	}
	if got := res.Cluster.OpenReservations(); got != 0 {
		t.Fatalf("%d reservations leaked after drain", got)
	}
	if res.Cluster.ActivePMs() >= x.PMs {
		t.Fatalf("async consolidation left all %d PMs active", x.PMs)
	}
}

// TestRunAsyncZeroLossTracksSync pins the facade-level counterpart of the
// protocol equivalence test: at mild latency and zero loss, the async
// transport's packing stays close to the synchronous shortcut on the same
// workload, placement and tables.
func TestRunAsyncZeroLossTracksSync(t *testing.T) {
	sync, err := Run(smallExperiment(PolicyGLAP))
	if err != nil {
		t.Fatal(err)
	}
	x := smallExperiment(PolicyGLAPAsync)
	x.Net = NetConfig{Latency: 1}
	async, err := Run(x)
	if err != nil {
		t.Fatal(err)
	}
	diff := sync.Cluster.ActivePMs() - async.Cluster.ActivePMs()
	if diff < 0 {
		diff = -diff
	}
	if diff > 4 {
		t.Fatalf("async active PMs %d vs sync %d: diverged by %d",
			async.Cluster.ActivePMs(), sync.Cluster.ActivePMs(), diff)
	}
}
