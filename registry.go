package glapsim

import (
	"fmt"
	"sort"

	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/topology"
)

// This file is the policy-stack registry: every consolidation policy the
// facade can run registers a PolicySpec here (see stacks.go for the built-in
// registrations), and Run wires an experiment through the registered spec
// instead of a hard-coded switch. Adding a policy or transport is one
// RegisterPolicy call — no facade edit.

// StackContext carries everything a policy stack needs to install itself on
// a prepared engine. Run fills it after the cluster, engine, binding and
// (when the spec asks for them) overlay and pre-trained tables exist.
type StackContext struct {
	// X is the experiment being run.
	X Experiment
	// E is the engine the stack registers its protocols on.
	E *sim.Engine
	// B binds the engine's nodes to the cluster's PMs.
	B *policy.Binding
	// Tables is GLAP's shared Q store: the pre-training outcome, or the
	// experiment's injected PretrainedTables. Nil for stacks whose spec does
	// not request pre-training.
	Tables *glap.NodeTables
	// Tree is the experiment's topology model, nil when disabled.
	Tree *topology.Tree
	// Artifacts receives optional handles the builder publishes for
	// instrumentation; never nil when Run invokes a builder.
	Artifacts *StackArtifacts
}

// StackArtifacts are optional handles a stack builder publishes so callers
// (robustness grids, tests) can read protocol counters after the run.
type StackArtifacts struct {
	// AsyncConsolidate is the message-passing consolidation protocol, set by
	// the glap-async stack.
	AsyncConsolidate *glap.AsyncConsolidateProtocol
	// Transport is the message transport, set by stacks that register one.
	Transport *sim.Transport
}

// StackBuilder installs one policy's protocol stack on the prepared engine.
type StackBuilder func(*StackContext) error

// PolicySpec describes a registered policy: which facade services it needs
// around the build, and the builder itself.
type PolicySpec struct {
	// Overlay: register the experiment's Cyclon peer-sampling overlay
	// before Build runs; the distributed protocols sample peers from it by
	// default. Centralized policies (pabfd, none) leave this false and skip
	// overlay construction entirely.
	Overlay bool
	// Pretrain: run GLAP pre-training before the consolidation run (unless
	// the experiment injects PretrainedTables) and pass the shared tables in
	// StackContext.Tables.
	Pretrain bool
	// Drain: after the scheduled rounds, run the event queue dry so
	// in-flight messages, timeouts and reservations settle. Message-passing
	// stacks set this.
	Drain bool
	// Build installs the stack.
	Build StackBuilder
}

var policyRegistry = map[Policy]PolicySpec{}

// RegisterPolicy adds a policy to the registry. It panics on a nil builder
// or a duplicate name: registrations happen at init time, where a broken
// registration should fail loudly.
func RegisterPolicy(p Policy, spec PolicySpec) {
	if spec.Build == nil {
		panic(fmt.Sprintf("glapsim: RegisterPolicy(%q) with nil Build", p))
	}
	if _, dup := policyRegistry[p]; dup {
		panic(fmt.Sprintf("glapsim: duplicate policy registration %q", p))
	}
	policyRegistry[p] = spec
}

// policySpec looks up a registered policy.
func policySpec(p Policy) (PolicySpec, bool) {
	spec, ok := policyRegistry[p]
	return spec, ok
}

// Pretrains reports whether p's stack runs GLAP pre-training, and so whether
// Run fills Result.Pretrain for an experiment without PretrainedTables.
func (p Policy) Pretrains() bool {
	spec, ok := policySpec(p)
	return ok && spec.Pretrain
}

// RegisteredPolicies lists every registered policy name in sorted order.
func RegisteredPolicies() []Policy {
	names := make([]Policy, 0, len(policyRegistry))
	for p := range policyRegistry {
		names = append(names, p)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}
