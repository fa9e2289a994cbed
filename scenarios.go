package glapsim

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/gossip"
	"github.com/glap-sim/glap/internal/metrics"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
	"github.com/glap-sim/glap/internal/trace"
)

// The scenario suite exercises the evaluation axes the paper's conclusion
// names as open — failures, heterogeneity, network topology and real
// workloads — as first-class experiments instead of one-off test pins. Every
// scenario is opt-in configuration over the ordinary experiment path
// (prepareStack), so the default runs that golden hashes pin are untouched.

// Scenario names one scenario family of the suite.
type Scenario string

// The four scenario families.
const (
	// ScenarioCrashChurn injects PM crash/recovery churn mid-run into the
	// message-passing GLAP stack: crashes evacuate or strand hosted VMs,
	// void outstanding migration reservations, and wipe the PM's volatile
	// Q-tables. The scenario runs twice — recovered PMs warm-restart from a
	// pre-crash checkpoint, or cold-restart empty and wait for table gossip
	// — and reports time-to-reconverge for both.
	ScenarioCrashChurn Scenario = "crash-churn"
	// ScenarioHetero runs GLAP on the mixed G4/G5 fleet, where per-PM power
	// curves and capacities differ.
	ScenarioHetero Scenario = "hetero"
	// ScenarioTopology runs the async stack under the three-tier topology
	// model: per-path message latency, oversubscribed cross-rack migration
	// bandwidth, locality-aware peer selection, and switch power accounting.
	ScenarioTopology Scenario = "topology"
	// ScenarioRealTrace drives a run from a ClusterData2011-style CSV
	// extract through the trace.LoadCSV pipeline (gzip file, comment
	// header, per-row validation) instead of the in-memory generator.
	ScenarioRealTrace Scenario = "real-trace"
)

// DefaultScenarios lists the suite in report order.
var DefaultScenarios = []Scenario{ScenarioCrashChurn, ScenarioHetero, ScenarioTopology, ScenarioRealTrace}

// ScenarioConfig parameterises the suite.
type ScenarioConfig struct {
	// Sizes are the cluster sizes to sweep (default 40, 80).
	Sizes []int
	// Ratio is the VM:PM ratio (default 2).
	Ratio int
	// Rounds is the consolidation-run length (default 60).
	Rounds int
	// Seed is the master seed (default 1).
	Seed uint64
	// Workers bounds intra-run parallelism (<= 0 auto).
	Workers int
	// GLAP overrides the GLAP configuration. The default shortens
	// pre-training to 120+60 rounds — the suite measures scenario deltas,
	// not absolute Table-I numbers, and pre-trains once per scenario×size
	// cell.
	GLAP glap.Config
	// Scenarios selects the families to run (default DefaultScenarios).
	Scenarios []Scenario
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{40, 80}
	}
	if c.Ratio == 0 {
		c.Ratio = 2
	}
	if c.Rounds == 0 {
		c.Rounds = 60
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.GLAP.LearnRounds == 0 {
		c.GLAP.LearnRounds = 120
	}
	if c.GLAP.AggRounds == 0 {
		c.GLAP.AggRounds = 60
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = DefaultScenarios
	}
	return c
}

// ScenarioRow is one (scenario, size) cell of the suite's report.
type ScenarioRow struct {
	Scenario string `json:"scenario"`
	PMs      int    `json:"pms"`
	VMs      int    `json:"vms"`
	Policy   string `json:"policy"`
	Rounds   int    `json:"rounds"`

	SLAV             float64 `json:"slav"`
	SLAVO            float64 `json:"slavo"`
	SLALM            float64 `json:"slalm"`
	EnergyKWh        float64 `json:"energy_kwh"`
	NetworkEnergyKWh float64 `json:"network_energy_kwh,omitempty"`
	MeanSwitchPowerW float64 `json:"mean_switch_power_w,omitempty"`
	Migrations       int64   `json:"migrations"`
	ActivePMs        int     `json:"active_pms"`
	FailedPlacements int64   `json:"failed_placements"`
	// SeriesHash fingerprints the run's full metrics series bit-exactly;
	// equal hashes across machines witness scenario determinism.
	SeriesHash string `json:"series_hash"`

	// Crash-churn accounting (zero for the other scenarios).
	Crashes              int `json:"crashes,omitempty"`
	Recoveries           int `json:"recoveries,omitempty"`
	Evacuated            int `json:"evacuated,omitempty"`
	Stranded             int `json:"stranded,omitempty"`
	ReservationsReleased int `json:"reservations_released,omitempty"`
	LeakedReservations   int `json:"leaked_reservations,omitempty"`
	// WarmReconvergeRounds / ColdReconvergeRounds are the mean rounds from
	// recovery until a restarted PM's φ^io realigns with the fleet
	// (cosine ≥ 0.9999), under checkpoint warm restart vs cold re-learning.
	// A node still unconverged when the run ends contributes the remaining
	// rounds, so the cold figure is a lower bound.
	WarmReconvergeRounds *float64 `json:"warm_reconverge_rounds,omitempty"`
	ColdReconvergeRounds *float64 `json:"cold_reconverge_rounds,omitempty"`

	// Real-trace provenance (zero for the other scenarios).
	TraceVMs    int `json:"trace_vms,omitempty"`
	TraceRounds int `json:"trace_rounds,omitempty"`
}

// RunScenarios executes the configured suite and returns one row per
// scenario × size, in configuration order.
func RunScenarios(cfg ScenarioConfig) ([]ScenarioRow, error) {
	cfg = cfg.withDefaults()
	var rows []ScenarioRow
	for _, scen := range cfg.Scenarios {
		for si, pms := range cfg.Sizes {
			// Per-size seeds are replication-split from the master so adding
			// a size never perturbs the others.
			seed := sim.ReplicationSeed(cfg.Seed, si)
			var (
				row ScenarioRow
				err error
			)
			switch scen {
			case ScenarioCrashChurn:
				row, err = runCrashScenario(cfg, pms, seed)
			case ScenarioHetero:
				row, err = runHeteroScenario(cfg, pms, seed)
			case ScenarioTopology:
				row, err = runTopologyScenario(cfg, pms, seed)
			case ScenarioRealTrace:
				row, err = runRealTraceScenario(cfg, pms, seed)
			default:
				err = fmt.Errorf("glapsim: unknown scenario %q", scen)
			}
			if err != nil {
				return nil, fmt.Errorf("glapsim: scenario %s at %d PMs: %w", scen, pms, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// baseScenarioExperiment is the shared experiment skeleton of every
// scenario cell; the overlay parameters are pinned like the robustness
// grid's so cells stay comparable across suites.
func baseScenarioExperiment(cfg ScenarioConfig, pms int, seed uint64) Experiment {
	return Experiment{
		PMs: pms, Ratio: cfg.Ratio, Rounds: cfg.Rounds, Seed: seed,
		Workers: cfg.Workers, GLAP: cfg.GLAP,
		CyclonViewSize: 20, CyclonShuffleLen: 8,
	}
}

// scenarioRow fills the metrics every scenario reports.
func scenarioRow(scen Scenario, x Experiment, series *metrics.Series, c *dc.Cluster) ScenarioRow {
	energy := metrics.TotalEnergyKWh(c)
	return ScenarioRow{
		Scenario:         string(scen),
		PMs:              x.PMs,
		VMs:              x.PMs * x.Ratio,
		Policy:           string(x.Policy),
		Rounds:           x.Rounds,
		SLAV:             series.SLAV,
		SLAVO:            series.SLAVO,
		SLALM:            series.SLALM,
		EnergyKWh:        energy,
		Migrations:       c.Migrations,
		ActivePMs:        c.ActivePMs(),
		FailedPlacements: c.FailedPlacements,
		SeriesHash:       hashScenarioSeries(series, energy),
	}
}

// hashScenarioSeries fingerprints every sample and the final SLA/energy
// floats bit-exactly.
func hashScenarioSeries(s *metrics.Series, energyKWh float64) string {
	h := sha256.New()
	for _, sm := range s.Samples {
		fmt.Fprintf(h, "%d,%d,%d,%d,%x\n",
			sm.Round, sm.ActivePMs, sm.OverloadedPMs, sm.Migrations,
			math.Float64bits(sm.MigrationEnergyJ))
	}
	fmt.Fprintf(h, "%x,%x,%x,%x\n",
		math.Float64bits(s.SLAVO), math.Float64bits(s.SLALM),
		math.Float64bits(s.SLAV), math.Float64bits(energyKWh))
	return hex.EncodeToString(h.Sum(nil))
}

// runHeteroScenario grows the heterogeneous-fleet hash pin into a measured
// scenario: GLAP on the alternating G4/G5 fleet.
func runHeteroScenario(cfg ScenarioConfig, pms int, seed uint64) (ScenarioRow, error) {
	x := baseScenarioExperiment(cfg, pms, seed)
	x.Policy = PolicyGLAP
	x.Heterogeneous = true
	res, err := Run(x)
	if err != nil {
		return ScenarioRow{}, err
	}
	return scenarioRow(ScenarioHetero, x, res.Series, res.Cluster), nil
}

// runTopologyScenario runs the message-passing stack under the three-tier
// topology model: per-path latency, oversubscribed migration bandwidth,
// locality-aware peer selection, and switch power in the energy report.
func runTopologyScenario(cfg ScenarioConfig, pms int, seed uint64) (ScenarioRow, error) {
	x := baseScenarioExperiment(cfg, pms, seed)
	x.Policy = PolicyGLAPAsync
	x.RackSize = 8
	x.RacksPerPod = 2
	x.TopologyAware = true
	x.Net = NetConfig{Latency: 10, TopoLatency: true}
	res, err := Run(x)
	if err != nil {
		return ScenarioRow{}, err
	}
	row := scenarioRow(ScenarioTopology, x, res.Series, res.Cluster)
	row.NetworkEnergyKWh = res.Network.EnergyKWh()
	row.MeanSwitchPowerW = res.Network.MeanPowerW()
	row.LeakedReservations = res.Cluster.OpenReservations()
	return row, nil
}

// runRealTraceScenario exercises the full real-trace pipeline end to end: a
// ClusterData2011-style extract is written as a gzip CSV with a tool-style
// comment header, loaded back through trace.LoadFile/LoadCSV, verified
// against the source, and then drives an ordinary GLAP run. The write→load
// round trip is the point — it runs exactly the code path a real Google
// extract takes.
func runRealTraceScenario(cfg ScenarioConfig, pms int, seed uint64) (ScenarioRow, error) {
	x := baseScenarioExperiment(cfg, pms, seed)
	x.Policy = PolicyGLAP

	// Materialise a bursty-heavy extract (task-usage resamples are batch
	// dominated) with the experiment's trace seed.
	gen := trace.DefaultGenConfig(pms*cfg.Ratio, cfg.Rounds, deriveSeed(seed, seedTrace))
	gen.Mix = map[trace.Archetype]float64{
		trace.Stable: 0.15, trace.Diurnal: 0.15, trace.Periodic: 0.10,
		trace.Bursty: 0.40, trace.Spiky: 0.20,
	}
	src, err := trace.Generate(gen)
	if err != nil {
		return ScenarioRow{}, err
	}

	dir, err := os.MkdirTemp("", "glap-scenario-trace-")
	if err != nil {
		return ScenarioRow{}, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "clusterdata_extract.csv.gz")
	if err := writeExtract(path, src); err != nil {
		return ScenarioRow{}, err
	}
	loaded, err := trace.LoadFile(path)
	if err != nil {
		return ScenarioRow{}, err
	}
	if loaded.NumVMs() != src.NumVMs() || loaded.Rounds() != src.Rounds() {
		return ScenarioRow{}, fmt.Errorf("glapsim: trace round trip changed shape: %d×%d -> %d×%d",
			src.NumVMs(), src.Rounds(), loaded.NumVMs(), loaded.Rounds())
	}

	x.Workload = loaded
	res, err := Run(x)
	if err != nil {
		return ScenarioRow{}, err
	}
	row := scenarioRow(ScenarioRealTrace, x, res.Series, res.Cluster)
	row.TraceVMs = loaded.NumVMs()
	row.TraceRounds = loaded.Rounds()
	return row, nil
}

// writeExtract writes the set as a gzip CSV whose first line is a
// ClusterData-tooling comment instead of the canonical vm,round,cpu,mem
// header — the single-field first line real extracts carry, which the
// loader must tolerate.
func writeExtract(path string, s *trace.Set) error {
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, s); err != nil {
		return err
	}
	body := buf.Bytes()
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		body = body[i+1:] // replace the canonical header with the comment line
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	if _, err := fmt.Fprintln(zw, "# google-clusterdata-2011 task_usage extract (resampled to 120 s rounds)"); err != nil {
		f.Close()
		return err
	}
	if _, err := zw.Write(body); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Crash-churn scenario parameters.
const (
	// crashMTTR is the rounds a crashed PM stays down before recovering.
	crashMTTR = 8
	// tableGossipEvery is the cadence of the full-table anti-entropy
	// exchange. Whole Q-tables are the heaviest payload in the system, so
	// they gossip at a low cadence — which is exactly what makes cold
	// restarts wait, and warm restarts worth measuring.
	tableGossipEvery = 4
	// reconvergeCosine is the φ^io alignment at which a restarted PM counts
	// as reconverged with the fleet.
	reconvergeCosine = 0.9999
)

// crashCell is the setup both variants of one crash-churn cell share: the
// experiment, its workload, the pre-trained Q store and the fault schedule.
func crashCell(cfg ScenarioConfig, pms int, seed uint64) (x Experiment, w *trace.Set, shared *glap.NodeTables, plan sim.FaultPlan, err error) {
	x = baseScenarioExperiment(cfg, pms, seed)
	x.Policy = PolicyGLAPAsync
	x.Net = NetConfig{Latency: 30, DropProb: 0.05}
	if err = x.Validate(); err != nil {
		return
	}
	if w, err = workloadFor(x); err != nil {
		return
	}
	if _, shared, err = pretrain(x, w); err != nil {
		return
	}
	crashes := pms / 10
	if crashes < 1 {
		crashes = 1
	}
	plan = sim.GenerateFaults(sim.NewRNG(deriveSeed(x.Seed, seedFaults)), pms, x.Rounds, crashes, crashMTTR)
	return
}

// runCrashScenario pre-trains once, generates one fault schedule, and plays
// it against two otherwise identical runs: warm (recovered PMs restore
// their checkpointed Q-tables) and cold (recovered PMs restart empty and
// wait for table gossip). The reported metrics come from the warm run; both
// reconvergence figures ride on the row.
func runCrashScenario(cfg ScenarioConfig, pms int, seed uint64) (ScenarioRow, error) {
	x, w, shared, plan, err := crashCell(cfg, pms, seed)
	if err != nil {
		return ScenarioRow{}, err
	}
	warm, err := runCrashVariant(x, w, shared, plan, true, nil)
	if err != nil {
		return ScenarioRow{}, err
	}
	cold, err := runCrashVariant(x, w, shared, plan, false, nil)
	if err != nil {
		return ScenarioRow{}, err
	}

	row := scenarioRow(ScenarioCrashChurn, x, warm.series, warm.c)
	row.Crashes = warm.crashes
	row.Recoveries = warm.recoveries
	row.Evacuated = warm.evacuated
	row.Stranded = warm.stranded
	row.ReservationsReleased = warm.released
	row.LeakedReservations = warm.leaked
	if m, ok := meanOf(warm.reconverge); ok {
		row.WarmReconvergeRounds = &m
	}
	if m, ok := meanOf(cold.reconverge); ok {
		row.ColdReconvergeRounds = &m
	}
	return row, nil
}

func meanOf(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs)), true
}

// crashOutcome is one crash-variant run's raw result.
type crashOutcome struct {
	series *metrics.Series
	c      *dc.Cluster

	crashes, recoveries int
	evacuated, stranded int
	released, leaked    int
	// reconverge holds, per recovery in node order, the rounds from
	// recovery to φ^io realignment; still-unconverged nodes contribute the
	// remaining run length (a lower bound).
	reconverge []float64
}

// runCrashVariant plays one fault schedule against a freshly prepared async
// stack. Unlike the shared-table runs, every node owns a Clone of the
// pre-trained store — a crash must be able to destroy one machine's
// (volatile) tables without touching the rest of the fleet. A low-cadence
// table-gossip protocol provides the re-acquisition channel cold restarts
// depend on. The check hook, when non-nil, runs at the end of every round;
// the failure-injection tests use it to assert cluster invariants under
// churn.
func runCrashVariant(x Experiment, w *trace.Set, shared *glap.NodeTables, plan sim.FaultPlan, warm bool, check func(c *dc.Cluster, e *sim.Engine, round int) error) (*crashOutcome, error) {
	s, err := prepareStack(x, w, shared)
	if err != nil {
		return nil, err
	}
	if s.async == nil {
		return nil, fmt.Errorf("glapsim: crash scenario requires the async GLAP stack")
	}
	c, e := s.c, s.e

	tabs := make([]*glap.NodeTables, x.PMs)
	for i := range tabs {
		tabs[i] = shared.Clone()
	}
	s.async.Tables = func(e *sim.Engine, n *sim.Node) *glap.NodeTables { return tabs[n.ID] }
	e.RegisterEvery(&tableGossipProtocol{tabs: tabs, drop: x.Net.DropProb}, tableGossipEvery)

	out := &crashOutcome{c: c}
	refVec := append([]float64(nil), shared.IOVec()...)
	checkpoints := map[int][]byte{}
	crashed := map[int]bool{}
	// redirect maps a planned victim to the machine the crash actually hit:
	// the consolidation policy powers emptied PMs off ahead of the fault
	// schedule, and a fault that lands on a dark machine exercises nothing.
	redirect := map[int]int{}
	recoveredAt := map[int]int{}
	reconvergedAt := map[int]int{}
	var runErr error

	plan.Install(e, func(e *sim.Engine, ev sim.FaultEvent) {
		if runErr != nil {
			return
		}
		if !ev.Up {
			victim := ev.Node
			if !c.PMs[victim].On() {
				// The policy already powered the planned victim off
				// gracefully — a crash there would exercise nothing.
				// Redirect the fault to the lowest-numbered live machine;
				// crashed PMs are off, so they cannot be picked twice.
				victim = -1
				for id := range c.PMs {
					if c.PMs[id].On() {
						victim = id
						break
					}
				}
				if victim < 0 {
					return // the whole fleet is dark; drop the event
				}
			}
			redirect[ev.Node] = victim
			crashed[victim] = true
			if warm {
				cp, err := glap.CheckpointTables(tabs[victim])
				if err != nil {
					runErr = err
					return
				}
				checkpoints[victim] = cp
			}
			rep, err := c.CrashPM(c.PMs[victim])
			if err != nil {
				runErr = err
				return
			}
			e.SetUp(e.Node(victim), false)
			// Volatile memory is gone; what the node comes back with is the
			// recovery path's decision below.
			tabs[victim] = glap.NewNodeTables(x.GLAP)
			out.crashes++
			out.evacuated += rep.Evacuated
			out.stranded += rep.Stranded
			out.released += rep.ReservationsReleased
		} else {
			victim, ok := redirect[ev.Node]
			if !ok {
				return // the crash was dropped, so is the recovery
			}
			delete(redirect, ev.Node)
			delete(crashed, victim)
			if err := c.RecoverPM(c.PMs[victim]); err != nil {
				runErr = err
				return
			}
			e.SetUp(e.Node(victim), true)
			if warm {
				restored, err := glap.RestoreTables(checkpoints[victim])
				if err != nil {
					runErr = err
					return
				}
				// The warm-restart contract: re-checkpointing the restored
				// store must reproduce the snapshot byte for byte.
				again, err := glap.CheckpointTables(restored)
				if err != nil {
					runErr = err
					return
				}
				if !bytes.Equal(checkpoints[victim], again) {
					runErr = fmt.Errorf("glapsim: warm restart of PM %d is not byte-identical to its checkpoint", victim)
					return
				}
				tabs[victim] = restored
			}
			recoveredAt[victim] = e.Round()
			out.recoveries++
		}
	})

	e.Observe(func(e *sim.Engine, r int) {
		if runErr != nil {
			return
		}
		ids := make([]int, 0, len(recoveredAt))
		for id := range recoveredAt {
			if _, done := reconvergedAt[id]; !done {
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		for _, id := range ids {
			if stats.CosineAligned(tabs[id].IOVec(), refVec) >= reconvergeCosine {
				reconvergedAt[id] = r
			}
		}
		if check != nil {
			if err := check(c, e, r); err != nil {
				runErr = err
			}
		}
	})

	out.series, _ = s.run()
	if runErr != nil {
		return nil, runErr
	}
	out.leaked = c.OpenReservations()

	ids := make([]int, 0, len(recoveredAt))
	for id := range recoveredAt {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if r, ok := reconvergedAt[id]; ok {
			out.reconverge = append(out.reconverge, float64(r-recoveredAt[id]))
		} else {
			out.reconverge = append(out.reconverge, float64(x.Rounds-recoveredAt[id]))
		}
	}
	return out, nil
}

// tableGossipProtocol is the anti-entropy channel for whole Q stores: each
// up node merges tables with one sampled peer per cadence round, subject to
// the run's message-loss probability. In steady state every exchange is a
// no-op (the fleet shares one converged store); its purpose is to re-seed a
// cold-restarted node's empty tables.
type tableGossipProtocol struct {
	tabs []*glap.NodeTables
	drop float64
	rng  sim.BoundRNG
}

// Name implements sim.Protocol.
func (g *tableGossipProtocol) Name() string { return "scenario-table-gossip" }

// Setup implements sim.Protocol; the protocol has no per-node state.
func (g *tableGossipProtocol) Setup(e *sim.Engine, n *sim.Node) any { return struct{}{} }

// Round implements one push-pull table exchange.
func (g *tableGossipProtocol) Round(e *sim.Engine, n *sim.Node, round int) {
	rng := g.rng.For(e, 0x7ab1e5)
	peer := gossip.CyclonSelector(e, n, rng)
	if peer < 0 {
		return
	}
	if g.drop > 0 && rng.Bernoulli(g.drop) {
		return // exchange lost in flight
	}
	glap.MergeTables(g.tabs[n.ID], g.tabs[peer])
}
