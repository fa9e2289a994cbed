// Package glapsim is the public facade of the GLAP reproduction: it
// assembles the simulation kernel, data-center model, workload generator,
// the GLAP protocol stack and the three comparison baselines into one-call
// experiment runners.
//
// A minimal run:
//
//	cfg := glapsim.Experiment{PMs: 100, Ratio: 2, Rounds: 120, Seed: 1, Policy: glapsim.PolicyGLAP}
//	res, err := glapsim.Run(cfg)
//
// res.Series then holds the per-round metrics the paper's figures are drawn
// from, and res.Series.SLAV the Table I metric.
package glapsim

import (
	"fmt"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/metrics"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/topology"
	"github.com/glap-sim/glap/internal/trace"
)

// Policy selects the consolidation algorithm under test. Each policy is a
// registry entry (see RegisterPolicy); the constants below are the built-in
// stacks registered in stacks.go.
type Policy string

// The four policies of the evaluation plus None (no consolidation) and the
// message-passing GLAP transport.
const (
	PolicyGLAP     Policy = "glap"
	PolicyGRMP     Policy = "grmp"
	PolicyEcoCloud Policy = "ecocloud"
	PolicyPABFD    Policy = "pabfd"
	PolicyNone     Policy = "none"
	// PolicyGLAPAsync runs GLAP's consolidation over real messages with
	// latency and loss (Experiment.Net) instead of the simulator's
	// synchronous push-pull shortcut.
	PolicyGLAPAsync Policy = "glap-async"
)

// Policies lists the four evaluated policies in the paper's order.
var Policies = []Policy{PolicyGLAP, PolicyEcoCloud, PolicyGRMP, PolicyPABFD}

// Experiment configures one simulation run (one policy, one cluster size,
// one VM:PM ratio). The same Experiment with the same Seed produces the
// same workload and the same initial VM placement regardless of Policy, so
// cross-policy comparisons are paired, as in Section V-A.
type Experiment struct {
	// PMs is the cluster size (the paper: 500, 1000, 2000).
	PMs int
	// Ratio is the VM:PM ratio (the paper: 2, 3, 4).
	Ratio int
	// Rounds is the number of consolidation rounds (the paper: 720 rounds
	// of 2 minutes = 24 h).
	Rounds int
	// Seed fixes workload, placement and all protocol randomness.
	Seed uint64
	// Policy selects the algorithm.
	Policy Policy

	// Workload overrides the generated trace (optional). It must contain
	// exactly PMs*Ratio VMs.
	Workload *trace.Set
	// TraceConfig overrides the synthetic generator's calibration (the
	// future-work bursty-workload evaluation raises the bursty/spiky mix
	// this way). VMs, Rounds and Seed are filled from the experiment.
	TraceConfig *trace.GenConfig
	// GLAP overrides the GLAP configuration (zero fields default).
	GLAP glap.Config
	// PretrainedTables skips GLAP pre-training and uses this checkpointed
	// Q store directly (see glap.SaveTables / glap.LoadTables).
	PretrainedTables *glap.NodeTables
	// Pretrain tunes GLAP pre-training measurement (optional).
	Pretrain glap.PretrainOptions
	// CyclonViewSize / CyclonShuffleLen configure the Cyclon peer-sampling
	// overlay of the distributed policies and of GLAP pre-training
	// (defaults 20 / 8).
	CyclonViewSize   int
	CyclonShuffleLen int
	// LogMigrations keeps per-migration records on the cluster.
	LogMigrations bool
	// Heterogeneous builds a mixed-hardware cluster (alternating HP
	// ProLiant ML110 G5 and G4 machines) instead of the paper's homogeneous
	// G5 fleet, which makes PABFD's power-aware placement non-trivial.
	Heterogeneous bool
	// VMChurn is the fraction of VMs with a dynamic lifecycle (late
	// arrival, possibly early departure) instead of the paper's fixed
	// population. 0 disables churn.
	VMChurn float64

	// Workers bounds the deterministic parallelism inside this run: the
	// parallel learning phase, the two lanes of the aggregation phase (φ^out
	// and φ^in merge concurrently), the helper goroutine that synthesises
	// the next round's VM demand beside a round of sequential gossip passes,
	// the demand refresh of a large cluster, and the final metrics scans.
	// <= 0 (the default) auto-sizes from the machine-wide worker budget
	// shared with RunReplicated; 1 forces fully sequential execution, no
	// goroutine at all; an explicit count > 1 is honored exactly. Results
	// are byte-identical for every setting.
	Workers int

	// Net configures the message transport for message-passing policies
	// (PolicyGLAPAsync). Cycle-driven policies ignore it.
	Net NetConfig

	// RackSize enables the network topology model (the paper's future-work
	// extension): PMs per rack; 0 disables it. With the model enabled,
	// cross-rack migrations see oversubscribed bandwidth and the run
	// reports switch energy (Result.Network).
	RackSize int
	// RacksPerPod configures the aggregation tier (default 4).
	RacksPerPod int
	// TopologyAware switches GLAP's consolidation to locality-aware peer
	// selection (same rack, then same pod, then anywhere), so racks drain
	// and their switches sleep. Only meaningful with PolicyGLAP and
	// RackSize > 0.
	TopologyAware bool
}

// NetConfig models the transport for message-passing stacks.
type NetConfig struct {
	// Latency is the one-way message delay in virtual time units
	// (default 1; the round period is 120).
	Latency int64
	// DropProb is the per-message loss probability.
	DropProb float64
	// OfferTimeout bounds each request stage of the offer handshake in
	// virtual time; 0 defaults to 2×RoundPeriod + 4×MaxLatency (the base
	// latency, tripled when TopoLatency is on).
	OfferTimeout int64
	// TopoLatency scales each message's delay by the topology's path length
	// (×1 in-rack, ×2 cross-rack, ×3 cross-pod) instead of a constant
	// Latency. Requires RackSize > 0.
	TopoLatency bool
}

// Validate reports configuration errors.
func (x *Experiment) Validate() error {
	if x.PMs <= 1 {
		return fmt.Errorf("glapsim: PMs must be > 1, got %d", x.PMs)
	}
	if x.Ratio <= 0 {
		return fmt.Errorf("glapsim: Ratio must be positive, got %d", x.Ratio)
	}
	if x.Rounds <= 0 {
		return fmt.Errorf("glapsim: Rounds must be positive, got %d", x.Rounds)
	}
	if _, ok := policySpec(x.Policy); !ok {
		return fmt.Errorf("glapsim: unknown policy %q", x.Policy)
	}
	// Both probability checks are written positively so that NaN, which
	// fails every comparison, is refused rather than read as zero.
	if !(x.Net.DropProb >= 0 && x.Net.DropProb <= 1) {
		return fmt.Errorf("glapsim: Net.DropProb %g out of [0,1]", x.Net.DropProb)
	}
	if x.Net.Latency < 0 || x.Net.OfferTimeout < 0 {
		return fmt.Errorf("glapsim: negative Net timing")
	}
	if x.Workload != nil && x.Workload.NumVMs() != x.PMs*x.Ratio {
		return fmt.Errorf("glapsim: workload has %d VMs, want %d", x.Workload.NumVMs(), x.PMs*x.Ratio)
	}
	if x.RackSize < 0 || x.RacksPerPod < 0 {
		return fmt.Errorf("glapsim: negative topology sizes")
	}
	if x.TopologyAware && x.RackSize == 0 {
		return fmt.Errorf("glapsim: TopologyAware requires RackSize > 0")
	}
	if x.Net.TopoLatency && x.RackSize == 0 {
		return fmt.Errorf("glapsim: Net.TopoLatency requires RackSize > 0")
	}
	if !(x.VMChurn >= 0 && x.VMChurn <= 1) {
		return fmt.Errorf("glapsim: VMChurn %g out of [0,1]", x.VMChurn)
	}
	return nil
}

// tree builds the experiment's topology model, or nil when disabled.
func (x *Experiment) tree() (*topology.Tree, error) {
	if x.RackSize == 0 {
		return nil, nil
	}
	perPod := x.RacksPerPod
	if perPod == 0 {
		perPod = 4
	}
	return topology.New(x.PMs, x.RackSize, perPod)
}

// Result is the outcome of one simulation run.
type Result struct {
	// Series holds the per-round samples and final SLA metrics.
	Series *metrics.Series
	// Cluster is the final cluster state (placement, accounting).
	Cluster *dc.Cluster
	// Pretrain is the GLAP pre-training outcome (nil for other policies).
	Pretrain *glap.PretrainResult
	// BFDBaseline is the oracle Best-Fit-Decreasing packing of the
	// last-round demand (the Figure 6 baseline).
	BFDBaseline int
	// Network holds switch activity and energy when the topology model is
	// enabled (nil otherwise).
	Network *metrics.NetworkSeries
}

// workloadFor returns the experiment's workload, generating it when absent.
func workloadFor(x Experiment) (*trace.Set, error) {
	if x.Workload != nil {
		return x.Workload, nil
	}
	gen := trace.DefaultGenConfig(x.PMs*x.Ratio, x.Rounds, deriveSeed(x.Seed, seedTrace))
	if x.TraceConfig != nil {
		gen = *x.TraceConfig
		gen.VMs = x.PMs * x.Ratio
		gen.Rounds = x.Rounds
		gen.Seed = deriveSeed(x.Seed, seedTrace)
	}
	// The streaming source synthesises samples on demand from ~200 bytes of
	// per-VM state — bit-identical to the materialised generator, but a
	// 200k-VM workload no longer costs rounds×16 bytes per VM up front.
	return trace.GenerateStreaming(gen)
}

// buildCluster assembles a cluster with the experiment's deterministic
// initial placement. Calling it twice yields identically placed clusters.
func buildCluster(x Experiment, w *trace.Set) (*dc.Cluster, error) {
	cfg := dc.Config{PMs: x.PMs, Workload: w, LogMigrations: x.LogMigrations}
	if x.Heterogeneous {
		cfg.PMSpecFor = func(pm int) dc.PMSpec {
			if pm%2 == 1 {
				return dc.HPProLiantML110G4
			}
			return dc.HPProLiantML110G5
		}
	}
	if tree, err := x.tree(); err != nil {
		return nil, err
	} else if tree != nil {
		cfg.MigrationBandwidth = glap.BandwidthModel(tree, dc.HPProLiantML110G5.NetBandwidthMBps)
	}
	c, err := dc.New(cfg)
	if err != nil {
		return nil, err
	}
	if x.VMChurn > 0 {
		churnRNG := sim.NewRNG(deriveSeed(x.Seed, seedChurn))
		for _, vm := range c.VMs {
			if !churnRNG.Bernoulli(x.VMChurn) {
				continue
			}
			arrive := 1 + churnRNG.Intn(x.Rounds/2+1)
			depart := -1
			if churnRNG.Bool() {
				depart = arrive + 1 + churnRNG.Intn(x.Rounds-arrive)
			}
			if err := c.SetLifecycle(vm.ID, arrive, depart); err != nil {
				return nil, err
			}
		}
	}
	placeRNG := sim.NewRNG(deriveSeed(x.Seed, seedPlacement))
	c.PlaceRandom(placeRNG.Intn)
	return c, nil
}

// seedPurpose tags the independent random streams derived from one
// experiment seed. Every source of randomness in a run draws from its own
// purpose-derived stream, so e.g. enabling churn cannot perturb the trace
// or the placement. The full derivation map is documented in DESIGN.md
// ("Seed derivation").
type seedPurpose uint64

const (
	// seedTrace drives the synthetic workload generator.
	seedTrace seedPurpose = 1
	// seedPlacement drives the initial random VM placement.
	seedPlacement seedPurpose = 2
	// seedPretrain seeds the GLAP pre-training engine.
	seedPretrain seedPurpose = 3
	// seedEngine seeds the consolidation-run engine (all protocol RNG
	// streams derive from it).
	seedEngine seedPurpose = 4
	// seedChurn drives VM lifecycle churn (arrival/departure rounds).
	seedChurn seedPurpose = 5
	// seedFaults drives PM crash/recovery schedules (victim choice and
	// crash rounds) in the failure scenarios.
	seedFaults seedPurpose = 6
)

// deriveSeed mixes a purpose tag into an experiment seed.
func deriveSeed(seed uint64, purpose seedPurpose) uint64 {
	return sim.NewRNG(seed).Derive(uint64(purpose)).Uint64()
}

// prepareStack assembles one fully wired run: an identically placed cluster
// for the experiment's seed, a fresh engine, the cluster binding, the
// topology model, the Cyclon overlay (when the policy's spec wants one) and the
// policy stack itself. Run, the robustness grid and the scenario suite all
// build their paired runs through this one path, so two calls with the same
// Experiment and workload differ in nothing but what the caller installs on
// top (metrics, fault plans, per-node table stores).
func prepareStack(x Experiment, w *trace.Set, shared *glap.NodeTables) (*dc.Cluster, *sim.Engine, *StackContext, error) {
	spec, ok := policySpec(x.Policy)
	if !ok {
		return nil, nil, nil, fmt.Errorf("glapsim: unknown policy %q", x.Policy)
	}
	c, err := buildCluster(x, w)
	if err != nil {
		return nil, nil, nil, err
	}
	c.Workers = x.Workers
	e := sim.NewEngine(x.PMs, deriveSeed(x.Seed, seedEngine))
	e.Workers = x.Workers
	b, err := policy.Bind(e, c)
	if err != nil {
		return nil, nil, nil, err
	}
	tree, err := x.tree()
	if err != nil {
		return nil, nil, nil, err
	}
	ctx := &StackContext{X: x, E: e, B: b, Tables: shared, Tree: tree, Artifacts: &StackArtifacts{}}
	if spec.Overlay {
		e.Register(cyclon.New(x.CyclonViewSize, x.CyclonShuffleLen))
	}
	if err := spec.Build(ctx); err != nil {
		return nil, nil, nil, err
	}
	return c, e, ctx, nil
}

// Run executes one replication of the experiment and returns its result.
// The policy's registered spec drives the wiring: pre-training and overlay
// construction happen only when the spec asks for them, and the stack
// itself is installed by the spec's builder.
func Run(x Experiment) (*Result, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	spec, ok := policySpec(x.Policy)
	if !ok {
		return nil, fmt.Errorf("glapsim: unknown policy %q", x.Policy)
	}
	w, err := workloadFor(x)
	if err != nil {
		return nil, err
	}

	var pretrain *glap.PretrainResult
	shared := x.PretrainedTables
	if spec.Pretrain && shared == nil {
		// Pre-train on a separate, identically placed cluster so the
		// comparison run replays the same trace window as the baselines
		// (the paper executes "700 more rounds to calculate Q-values
		// beforehand").
		preCluster, err := buildCluster(x, w)
		if err != nil {
			return nil, err
		}
		opts := x.Pretrain
		if opts.CyclonViewSize == 0 {
			opts.CyclonViewSize = x.CyclonViewSize
		}
		if opts.CyclonShuffleLen == 0 {
			opts.CyclonShuffleLen = x.CyclonShuffleLen
		}
		if opts.Workers == 0 {
			opts.Workers = x.Workers
		}
		pretrain, err = glap.Pretrain(x.GLAP, preCluster, deriveSeed(x.Seed, seedPretrain), opts)
		if err != nil {
			return nil, err
		}
		shared, err = glap.SharedTables(pretrain)
		if err != nil {
			return nil, err
		}
	}

	c, e, ctx, err := prepareStack(x, w, shared)
	if err != nil {
		return nil, err
	}

	series := metrics.Attach(e, c, 0)
	var network *metrics.NetworkSeries
	if ctx.Tree != nil {
		network = metrics.AttachNetwork(e, c, ctx.Tree, topology.DefaultSwitchSpec)
	}
	e.RunRounds(x.Rounds)
	if spec.Drain {
		// Run the event queue dry so in-flight messages, request timeouts
		// and reservation holds settle before the final measurements.
		e.RunEvents(-1)
	}
	series.Finalize(c)

	return &Result{
		Series:      series,
		Cluster:     c,
		Pretrain:    pretrain,
		BFDBaseline: bfdOracle(c),
		Network:     network,
	}, nil
}

// RunReplicated executes reps independent replications of the experiment in
// parallel (the paper repeats every experiment 20 times) and returns the
// per-replication results. workers <= 0 uses GOMAXPROCS. Replication r uses
// seed Seed+r-derived streams but the identical workload and placement
// question is per replication: each replication gets its own workload and
// placement, matching the paper's repeated random setups.
func RunReplicated(x Experiment, reps, workers int) ([]*Result, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	type out struct {
		res *Result
		err error
	}
	results := sim.RunReplications(reps, workers, func(rep int) out {
		xr := x
		xr.Seed = sim.ReplicationSeed(x.Seed, rep)
		xr.Workload = nil // regenerate per replication
		r, err := Run(xr)
		return out{r, err}
	})
	final := make([]*Result, len(results))
	for i, o := range results {
		if o.err != nil {
			return nil, fmt.Errorf("glapsim: replication %d: %w", i, o.err)
		}
		final[i] = o.res
	}
	return final, nil
}
