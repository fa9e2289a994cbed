package glapsim

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/glap"
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
	// Workers bounds the run fan-out and each run's parallelism (<= 0 auto).
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
	c.Sizes = orDefault(c.Sizes, []int{40, 80})
	c.Ratio, c.Rounds, c.Seed = cmp.Or(c.Ratio, 2), cmp.Or(c.Rounds, 60), cmp.Or(c.Seed, 1)
	c.GLAP.LearnRounds, c.GLAP.AggRounds = cmp.Or(c.GLAP.LearnRounds, 120), cmp.Or(c.GLAP.AggRounds, 60)
	c.Scenarios = orDefault(c.Scenarios, DefaultScenarios)
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
// scenario × size, in configuration order. Every run is validated before any
// starts, and an error names its scenario and size.
func RunScenarios(cfg ScenarioConfig) ([]ScenarioRow, error) {
	cfg = cfg.withDefaults()
	runs, cells, err := scenarioRuns(cfg)
	if err != nil {
		return nil, err
	}
	recs, err := sweep(runs, cfg.Workers, (*stack).outcome)
	if err != nil {
		return nil, err
	}
	rows := make([]ScenarioRow, len(cells))
	for i, cell := range cells {
		rows[i] = cell.row(runs[cell.run].x, recs[cell.run])
	}
	return rows, nil
}

// scenarioCell is one row of the suite: its family, the run it reports and,
// for crash-churn, the warm and cold hooks, which hold what they counted.
type scenarioCell struct {
	scen       Scenario
	run        int
	warm, cold *crashRun
}

// scenarioRuns lists the suite's runs and its rows, scenario by scenario and
// size by size. Crash-churn plays one fault schedule twice, warm then cold,
// and reports the warm run; real-trace prepares its workload here, through a
// CSV file and back.
func scenarioRuns(cfg ScenarioConfig) ([]sweepRun, []scenarioCell, error) {
	var runs []sweepRun
	var cells []scenarioCell
	for _, scen := range cfg.Scenarios {
		for si, pms := range cfg.Sizes {
			name := fmt.Sprintf("glapsim: scenario %s at %d PMs", scen, pms)
			// Per-size seeds are replication-split from the master so adding
			// a size never perturbs the others. The overlay parameters are
			// pinned like the robustness grid's.
			x := Experiment{
				PMs: pms, Ratio: cfg.Ratio, Rounds: cfg.Rounds, Seed: sim.ReplicationSeed(cfg.Seed, si),
				Policy: PolicyGLAP, Workers: cfg.Workers, GLAP: cfg.GLAP,
				CyclonViewSize: 20, CyclonShuffleLen: 8,
			}
			cell := scenarioCell{scen: scen, run: len(runs)}
			switch scen {
			case ScenarioCrashChurn:
				x.Policy = PolicyGLAPAsync
				x.Net = NetConfig{Latency: 30, DropProb: 0.05}
				cell.warm, cell.cold = &crashRun{warm: true}, &crashRun{}
				runs = append(runs, sweepRun{name, x, cell.warm.install}, sweepRun{name, x, cell.cold.install})
			case ScenarioHetero:
				x.Heterogeneous = true
			case ScenarioTopology:
				x.Policy = PolicyGLAPAsync
				x.RackSize, x.RacksPerPod, x.TopologyAware = 8, 2, true
				x.Net = NetConfig{Latency: 10, TopoLatency: true}
			case ScenarioRealTrace:
				w, err := realTraceExtract(x)
				if err != nil {
					return nil, nil, fmt.Errorf("%s: %w", name, err)
				}
				x.Workload = w
			default:
				return nil, nil, fmt.Errorf("glapsim: unknown scenario %q", scen)
			}
			if cell.warm == nil {
				runs = append(runs, sweepRun{name: name, x: x})
			}
			cells = append(cells, cell)
		}
	}
	return runs, cells, nil
}

// row fills the cell's report from its run's experiment and outcome.
func (cell scenarioCell) row(x Experiment, o outcome) ScenarioRow {
	row := ScenarioRow{
		Scenario:           string(cell.scen),
		PMs:                x.PMs,
		VMs:                x.PMs * x.Ratio,
		Policy:             string(x.Policy),
		Rounds:             x.Rounds,
		SLAV:               o.series.SLAV,
		SLAVO:              o.series.SLAVO,
		SLALM:              o.series.SLALM,
		EnergyKWh:          o.energyKWh,
		Migrations:         o.migrations,
		ActivePMs:          o.active,
		FailedPlacements:   o.failed,
		SeriesHash:         hashScenarioSeries(o.series, o.energyKWh),
		LeakedReservations: o.leaked,
	}
	if o.network != nil {
		row.NetworkEnergyKWh = o.network.EnergyKWh()
		row.MeanSwitchPowerW = o.network.MeanPowerW()
	}
	if w := x.Workload; w != nil {
		row.TraceVMs, row.TraceRounds = w.NumVMs(), w.Rounds()
	}
	if warm := cell.warm; warm != nil {
		row.Crashes, row.Recoveries = warm.crashes, warm.recoveries
		row.Evacuated, row.Stranded = warm.evacuated, warm.stranded
		row.ReservationsReleased = warm.released
		if len(warm.reconverge) > 0 {
			m := stats.Mean(warm.reconverge)
			row.WarmReconvergeRounds = &m
		}
		if len(cell.cold.reconverge) > 0 {
			m := stats.Mean(cell.cold.reconverge)
			row.ColdReconvergeRounds = &m
		}
	}
	return row
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

// realTraceExtract prepares the real-trace workload through exactly the code
// path a real Google extract takes: a bursty-heavy ClusterData2011-style
// extract (task-usage resamples are batch dominated) goes out as a gzip CSV
// whose first line is a tooling comment instead of the vm,round,cpu,mem
// header, as real extracts carry, and comes back through trace.LoadFile.
func realTraceExtract(x Experiment) (*trace.Set, error) {
	gen := trace.DefaultGenConfig(x.PMs*x.Ratio, x.Rounds, deriveSeed(x.Seed, seedTrace))
	gen.Mix = map[trace.Archetype]float64{
		trace.Stable: 0.15, trace.Diurnal: 0.15, trace.Periodic: 0.10,
		trace.Bursty: 0.40, trace.Spiky: 0.20,
	}
	src, err := trace.Generate(gen)
	if err != nil {
		return nil, err
	}
	var csv, gz bytes.Buffer
	if err := trace.WriteCSV(&csv, src); err != nil {
		return nil, err
	}
	body := csv.Bytes()
	zw := gzip.NewWriter(&gz)
	fmt.Fprintln(zw, "# google-clusterdata-2011 task_usage extract (resampled to 120 s rounds)")
	zw.Write(body[bytes.IndexByte(body, '\n')+1:]) // the comment replaces the header
	if err := zw.Close(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "glap-scenario-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "clusterdata_extract.csv.gz")
	if err := os.WriteFile(path, gz.Bytes(), 0o644); err != nil {
		return nil, err
	}
	loaded, err := trace.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if loaded.NumVMs() != src.NumVMs() || loaded.Rounds() != src.Rounds() {
		return nil, fmt.Errorf("glapsim: trace round trip changed shape: %d×%d -> %d×%d",
			src.NumVMs(), src.Rounds(), loaded.NumVMs(), loaded.Rounds())
	}
	return loaded, nil
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

// crashRun is the crash-churn scenario's install hook and what it counts.
// It plays the cell's fault schedule against the prepared async stack.
// Unlike the shared-table runs, every node owns a Clone of the pre-trained
// store — a crash must be able to destroy one machine's (volatile) tables
// without touching the rest of the fleet. A low-cadence table-gossip
// protocol provides the re-acquisition channel cold restarts depend on;
// warm restarts restore the node's checkpoint instead.
type crashRun struct {
	warm bool

	crashes, recoveries, evacuated, stranded, released int
	// reconverge holds, per recovery in node order, the rounds from
	// recovery to φ^io realignment; still-unconverged nodes contribute the
	// remaining run length (a lower bound).
	reconverge []float64
}

// install implements sweepRun.install for the crash-churn runs.
func (cr *crashRun) install(s *stack) func() error {
	x, c, e, shared := s.x, s.c, s.e, s.shared
	plan := sim.GenerateFaults(sim.NewRNG(deriveSeed(x.Seed, seedFaults)), x.PMs, x.Rounds, max(x.PMs/10, 1), crashMTTR)

	tabs := make([]*glap.NodeTables, x.PMs)
	for i := range tabs {
		tabs[i] = shared.Clone()
	}
	s.async.Tables = func(e *sim.Engine, n *sim.Node) *glap.NodeTables { return tabs[n.ID] }
	e.RegisterWindow(&tableGossipProtocol{tabs: tabs, drop: x.Net.DropProb}, tableGossipEvery, 0, -1)

	refVec := append([]float64(nil), shared.IOVec()...)
	checkpoints := map[int][]byte{}
	// redirect maps a planned victim to the machine the crash actually hit.
	redirect := map[int]int{}
	recoveredAt := map[int]int{}
	reconvergedAt := map[int]int{}
	var runErr error
	failed := func(err error) bool {
		if err != nil {
			runErr = err
		}
		return err != nil
	}

	plan.Install(e, func(e *sim.Engine, ev sim.FaultEvent) {
		if runErr != nil {
			return
		}
		if !ev.Up {
			// The policy powers emptied PMs off ahead of the schedule, and a
			// crash on a dark machine would exercise nothing: such a fault
			// hits the lowest-numbered live machine instead. Crashed PMs are
			// off, so they cannot be picked twice.
			victim := ev.Node
			for id := 0; !c.PMs[victim].On() && id < len(c.PMs); id++ {
				if c.PMs[id].On() {
					victim = id
				}
			}
			if !c.PMs[victim].On() {
				return // the whole fleet is dark; drop the event
			}
			redirect[ev.Node] = victim
			if cr.warm {
				cp, err := glap.CheckpointTables(tabs[victim])
				if failed(err) {
					return
				}
				checkpoints[victim] = cp
			}
			rep, err := c.CrashPM(c.PMs[victim])
			if failed(err) {
				return
			}
			e.SetUp(e.Node(victim), false)
			// Volatile memory is gone; what the node comes back with is the
			// recovery path's decision below.
			tabs[victim] = glap.NewNodeTables(x.GLAP)
			cr.crashes++
			cr.evacuated += rep.Evacuated
			cr.stranded += rep.Stranded
			cr.released += rep.ReservationsReleased
			return
		}
		victim, ok := redirect[ev.Node]
		if !ok {
			return // the crash was dropped, so is the recovery
		}
		delete(redirect, ev.Node)
		if failed(c.RecoverPM(c.PMs[victim])) {
			return
		}
		e.SetUp(e.Node(victim), true)
		if cr.warm {
			// The warm-restart contract: re-checkpointing the restored store
			// must reproduce the snapshot byte for byte.
			restored, err := glap.RestoreTables(checkpoints[victim])
			if failed(err) {
				return
			}
			again, err := glap.CheckpointTables(restored)
			if failed(err) {
				return
			}
			if !bytes.Equal(checkpoints[victim], again) {
				runErr = fmt.Errorf("glapsim: warm restart of PM %d is not byte-identical to its checkpoint", victim)
				return
			}
			tabs[victim] = restored
		}
		recoveredAt[victim] = e.Round()
		cr.recoveries++
	})

	e.Observe(func(e *sim.Engine, r int) {
		for id := range recoveredAt {
			if _, done := reconvergedAt[id]; !done && runErr == nil &&
				stats.CosineAligned(tabs[id].IOVec(), refVec) >= reconvergeCosine {
				reconvergedAt[id] = r
			}
		}
	})

	return func() error {
		ids := make([]int, 0, len(recoveredAt))
		for id := range recoveredAt {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			until, ok := reconvergedAt[id]
			if !ok {
				until = x.Rounds
			}
			cr.reconverge = append(cr.reconverge, float64(until-recoveredAt[id]))
		}
		return runErr
	}
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
	peer := cyclon.SelectPeer(e, n, rng)
	if peer < 0 {
		return
	}
	if g.drop > 0 && rng.Bernoulli(g.drop) {
		return // exchange lost in flight
	}
	glap.MergeTables(g.tabs[n.ID], g.tabs[peer])
}
