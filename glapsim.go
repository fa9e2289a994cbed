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
//
// The six policies are a fixed set: stacks.go switches on Experiment.Policy
// to install each one's protocols. Every runner in the package assembles its
// runs through that file: Run plays one run, and RunGrid, RunReplicated,
// RunRobust and RunScenarios are run lists over one replication loop
// (sweep.go).
package glapsim

import (
	"fmt"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/metrics"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/topology"
	"github.com/glap-sim/glap/internal/trace"
)

// Policy selects the consolidation algorithm under test: one of the
// constants below, each installed by prepareStack's switch in stacks.go.
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
	// GLAP overrides the GLAP configuration (zero fields default).
	GLAP glap.Config
	// PretrainedTables skips GLAP pre-training and uses this checkpointed
	// Q store directly (see glap.SaveTables / glap.LoadTables). Both of its
	// tables must be non-nil.
	PretrainedTables *glap.NodeTables
	// CyclonShuffleLen is the shuffle length of the Cyclon peer-sampling
	// overlay of the distributed policies and of GLAP pre-training. Zero
	// takes cyclon.New's default, 10; the robustness grid and the scenario
	// suite use 8. The view size is fixed at cyclon.New's 20.
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
	// and φ^in merge concurrently), and the helper goroutine that
	// synthesises the next round's VM demand beside a round of sequential
	// gossip passes.
	// <= 0 (the default) auto-sizes from the machine-wide worker budget
	// shared with the sweeps' replication fan-out; 1 forces fully
	// sequential execution, no goroutine at all; an explicit count > 1 is
	// honored exactly. Results are byte-identical for every setting.
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
	// and their switches sleep. Requires RackSize > 0. Under PolicyGLAP it
	// also turns on the rack-occupancy direction rule; under PolicyGLAPAsync
	// it changes peer selection only. Other policies ignore it.
	TopologyAware bool
}

// NetConfig models the transport for message-passing stacks.
type NetConfig struct {
	// Latency is the one-way message delay in virtual time units
	// (default 1; the round period is 120).
	Latency int64
	// DropProb is the per-message loss probability.
	DropProb float64
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
	if _, _, ok := x.Policy.needs(); !ok {
		return fmt.Errorf("glapsim: unknown policy %q", x.Policy)
	}
	// Both probability checks are written positively so that NaN, which
	// fails every comparison, is refused rather than read as zero.
	if !(x.Net.DropProb >= 0 && x.Net.DropProb <= 1) {
		return fmt.Errorf("glapsim: Net.DropProb %g out of [0,1]", x.Net.DropProb)
	}
	if x.Net.Latency < 0 {
		return fmt.Errorf("glapsim: negative Net.Latency %d", x.Net.Latency)
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
	if t := x.PretrainedTables; t != nil && t.Out == nil {
		return fmt.Errorf("glapsim: PretrainedTables.Out is nil")
	}
	if t := x.PretrainedTables; t != nil && t.In == nil {
		return fmt.Errorf("glapsim: PretrainedTables.In is nil")
	}
	if x.Policy.Pretrains() {
		if err := x.GLAP.Validate(); err != nil {
			return fmt.Errorf("glapsim: GLAP: %w", err)
		}
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
	// Decisions is the GLAP consolidation protocol's histogram of
	// Algorithm-3 outcomes, split at the end of the run's first quarter
	// (nil for the other policies).
	Decisions *glap.Decisions
}

// workloadFor returns the experiment's workload, generating it when absent.
func workloadFor(x Experiment) (*trace.Set, error) {
	if x.Workload != nil {
		return x.Workload, nil
	}
	gen := trace.DefaultGenConfig(x.PMs*x.Ratio, x.Rounds, deriveSeed(x.Seed, seedTrace))
	// The streaming source synthesises samples on demand from a 120-byte
	// per-VM cursor — the very synthesis the materialised generator holds,
	// but a 200k-VM workload no longer costs rounds×16 bytes per VM up front.
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
			// A departure is drawn only when one fits in the run: at
			// Rounds 1 and 2 a VM may arrive in the last round.
			depart := -1
			if churnRNG.Bool() && arrive < x.Rounds {
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

// Run executes one replication of the experiment and returns its result.
// GLAP's policies pre-train first, unless the experiment injects
// PretrainedTables.
func Run(x Experiment) (*Result, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	var res *Result
	if _, err := play([]sweepRun{{x: x}}, []int{0}, func(_ int, s *stack) { res = s.result() }); err != nil {
		return nil, err
	}
	return res, nil
}

// RunReplicated executes reps independent replications of the experiment in
// parallel (the paper repeats every experiment 20 times) and returns the
// per-replication results; a negative reps is refused. workers <= 0 uses
// GOMAXPROCS. Replication r runs under sim.ReplicationSeed(Seed, r) and
// regenerates its workload from that seed (a set x.Workload is ignored), so
// each replication gets its own workload, placement and random streams, as
// the paper's repeated setups do.
func RunReplicated(x Experiment, reps, workers int) ([]*Result, error) {
	if reps < 0 {
		return nil, fmt.Errorf("glapsim: negative reps %d", reps)
	}
	return sweep(replications("glapsim:", x, reps), workers, (*stack).result)
}
