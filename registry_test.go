package glapsim

import (
	"strings"
	"testing"

	"github.com/glap-sim/glap/internal/sim"
)

func TestRegisteredPoliciesContainBuiltins(t *testing.T) {
	have := map[Policy]bool{}
	for _, p := range RegisteredPolicies() {
		have[p] = true
	}
	for _, p := range []Policy{PolicyGLAP, PolicyGLAPAsync, PolicyGRMP, PolicyEcoCloud, PolicyPABFD, PolicyNone} {
		if !have[p] {
			t.Fatalf("built-in policy %q not registered", p)
		}
	}
}

// TestCentralizedSpecsSkipOverlay pins that PABFD and None never construct a
// peer-sampling overlay: their specs leave Overlay (and Pretrain) unset, so
// Run registers no Cyclon protocol for them, as the pre-registry switch did.
func TestCentralizedSpecsSkipOverlay(t *testing.T) {
	for _, p := range []Policy{PolicyPABFD, PolicyNone} {
		spec, ok := policySpec(p)
		if !ok {
			t.Fatalf("policy %q not registered", p)
		}
		if spec.Overlay || spec.Pretrain {
			t.Fatalf("policy %q spec requests Overlay=%v Pretrain=%v, want neither", p, spec.Overlay, spec.Pretrain)
		}
	}
	for _, p := range []Policy{PolicyGLAP, PolicyGLAPAsync, PolicyGRMP, PolicyEcoCloud} {
		spec, _ := policySpec(p)
		if !spec.Overlay {
			t.Fatalf("distributed policy %q spec does not request an overlay", p)
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

// TestRegisterPolicyRecipe is the one-registration recipe from DESIGN.md: a
// new policy is a RegisterPolicy call with a builder, after which the facade
// runs it with no further edits.
func TestRegisterPolicyRecipe(t *testing.T) {
	const name Policy = "test-noop"
	if _, dup := policySpec(name); !dup {
		RegisterPolicy(name, PolicySpec{
			Build: func(ctx *StackContext) error {
				// A trivial stack: consolidate nothing, just observe rounds.
				ctx.E.Register(&countingProtocol{})
				return nil
			},
		})
	}
	res, err := Run(smallExperiment(name))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series.Samples) != 40 {
		t.Fatalf("custom policy run produced %d samples, want 40", len(res.Series.Samples))
	}
}

// countingProtocol is the minimal sim.Protocol for the recipe test.
type countingProtocol struct{ rounds int }

func (p *countingProtocol) Name() string                            { return "test-noop-proto" }
func (p *countingProtocol) Setup(e *sim.Engine, n *sim.Node) any    { return struct{}{} }
func (p *countingProtocol) Round(e *sim.Engine, n *sim.Node, r int) { p.rounds++ }

func TestRegisterPolicyRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterPolicy(PolicyGLAP, PolicySpec{Build: func(*StackContext) error { return nil }})
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
