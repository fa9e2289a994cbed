package glapsim

import (
	"fmt"

	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
)

// RobustConfig sweeps the message-passing consolidation protocol over a
// loss-probability × latency grid and compares every cell against the
// synchronous (simulator-shortcut) protocol on the same workloads, tables
// and placements. It quantifies how much packing quality Algorithm 3 gives
// up when its push-pull exchanges ride a real network.
type RobustConfig struct {
	// PMs and Ratio size the cluster (defaults 50 and 2).
	PMs   int
	Ratio int
	// Rounds is the consolidation-run length (default 60).
	Rounds int
	// Reps is the number of replications (default 3).
	Reps int
	// Seed is the master seed.
	Seed uint64
	// DropProbs are the loss probabilities of the grid (default 0, 0.1,
	// 0.2).
	DropProbs []float64
	// Latencies are the one-way message delays in virtual time units; the
	// round period is 120 (default 1, 30, 90).
	Latencies []int64
	// Workers bounds replication parallelism (<= 0: GOMAXPROCS).
	Workers int
	// GLAP overrides the GLAP configuration.
	GLAP glap.Config
}

func (r RobustConfig) withDefaults() RobustConfig {
	if r.PMs == 0 {
		r.PMs = 50
	}
	if r.Ratio == 0 {
		r.Ratio = 2
	}
	if r.Rounds == 0 {
		r.Rounds = 60
	}
	if r.Reps == 0 {
		r.Reps = 3
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if len(r.DropProbs) == 0 {
		r.DropProbs = []float64{0, 0.1, 0.2}
	}
	if len(r.Latencies) == 0 {
		r.Latencies = []int64{1, 30, 90}
	}
	return r
}

// RobustCell identifies one (loss, latency) grid cell.
type RobustCell struct {
	DropProb float64
	Latency  int64
}

// String renders e.g. "p=0.10/lat=30".
func (c RobustCell) String() string {
	return fmt.Sprintf("p=%.2f/lat=%d", c.DropProb, c.Latency)
}

// RobustCellStats aggregates one cell's replications.
type RobustCellStats struct {
	Cell RobustCell
	// Active, Migrations and SLAV summarise end-of-run outcomes across
	// replications.
	Active     stats.Summary
	Migrations stats.Summary
	SLAV       stats.Summary
	// Message accounting totals across replications.
	Sent, Delivered, Dropped int64
	// Protocol sequence counters summed across replications.
	Offers, Commits, Aborts, Expired int64
	// LeakedReservations counts reservations still open after the drain —
	// any nonzero value is a protocol bug.
	LeakedReservations int
}

// RobustResult is the full grid outcome plus the synchronous reference.
type RobustResult struct {
	// SyncActive, SyncMigrations and SyncSLAV summarise the cycle-driven
	// reference runs.
	SyncActive     stats.Summary
	SyncMigrations stats.Summary
	SyncSLAV       stats.Summary
	// Cells holds the async grid in DropProbs × Latencies order.
	Cells []*RobustCellStats
}

// robustRep is one replication's raw outcome.
type robustRep struct {
	err                           error
	syncActive, syncMig, syncSLAV float64
	cells                         []robustCellRep
}

type robustCellRep struct {
	active, migrations, slav         float64
	sent, delivered, dropped         int64
	offers, commits, aborts, expired int64
	leaked                           int
}

// RunRobust executes the robustness grid. Each replication pretrains once,
// runs the synchronous reference — the run Run makes of the replication's
// experiment — and then replays every (loss, latency) cell on an
// identically placed cluster with the same shared tables, so all
// comparisons are paired.
// Every cell's experiment is validated before any replication starts.
func RunRobust(cfg RobustConfig) (*RobustResult, error) {
	cfg = cfg.withDefaults()
	x := robustExperiment(cfg, 0)
	if err := x.Validate(); err != nil {
		return nil, err
	}
	for _, drop := range cfg.DropProbs {
		for _, lat := range cfg.Latencies {
			xc := robustCell(x, drop, lat)
			if err := xc.Validate(); err != nil {
				return nil, fmt.Errorf("robustness cell %v: %w", RobustCell{DropProb: drop, Latency: lat}, err)
			}
		}
	}
	reps := sim.RunReplications(cfg.Reps, cfg.Workers, func(rep int) robustRep {
		r, err := runRobustRep(cfg, rep)
		r.err = err
		return r
	})

	res := &RobustResult{}
	var syncActive, syncMig, syncSLAV []float64
	nCells := len(cfg.DropProbs) * len(cfg.Latencies)
	cellActive := make([][]float64, nCells)
	cellMig := make([][]float64, nCells)
	cellSLAV := make([][]float64, nCells)
	agg := make([]RobustCellStats, nCells)
	for _, r := range reps {
		if r.err != nil {
			return nil, r.err
		}
		syncActive = append(syncActive, r.syncActive)
		syncMig = append(syncMig, r.syncMig)
		syncSLAV = append(syncSLAV, r.syncSLAV)
		for i, c := range r.cells {
			cellActive[i] = append(cellActive[i], c.active)
			cellMig[i] = append(cellMig[i], c.migrations)
			cellSLAV[i] = append(cellSLAV[i], c.slav)
			agg[i].Sent += c.sent
			agg[i].Delivered += c.delivered
			agg[i].Dropped += c.dropped
			agg[i].Offers += c.offers
			agg[i].Commits += c.commits
			agg[i].Aborts += c.aborts
			agg[i].Expired += c.expired
			agg[i].LeakedReservations += c.leaked
		}
	}
	res.SyncActive = stats.Summarize(syncActive)
	res.SyncMigrations = stats.Summarize(syncMig)
	res.SyncSLAV = stats.Summarize(syncSLAV)
	i := 0
	for _, drop := range cfg.DropProbs {
		for _, lat := range cfg.Latencies {
			cs := agg[i]
			cs.Cell = RobustCell{DropProb: drop, Latency: lat}
			cs.Active = stats.Summarize(cellActive[i])
			cs.Migrations = stats.Summarize(cellMig[i])
			cs.SLAV = stats.Summarize(cellSLAV[i])
			res.Cells = append(res.Cells, &cs)
			i++
		}
	}
	return res, nil
}

// robustExperiment is replication rep's synchronous reference experiment:
// RunRobust's reference row is Run of it, and every grid cell replays it over
// messages (robustCell).
func robustExperiment(cfg RobustConfig, rep int) Experiment {
	return Experiment{
		PMs: cfg.PMs, Ratio: cfg.Ratio, Rounds: cfg.Rounds,
		Seed: sim.ReplicationSeed(cfg.Seed, rep), Policy: PolicyGLAP, GLAP: cfg.GLAP,
		CyclonViewSize: 20, CyclonShuffleLen: 8,
	}
}

// robustCell is the reference experiment x run over messages with one grid
// cell's loss probability and latency.
func robustCell(x Experiment, drop float64, lat int64) Experiment {
	x.Policy = PolicyGLAPAsync
	x.Net = NetConfig{Latency: lat, DropProb: drop}
	return x
}

// runRobustRep executes one full replication: it pre-trains once, runs the
// synchronous reference, and replays every async grid cell on the same
// workload and tables. prepareStack gives each run an identically placed
// cluster and the same engine seed, so the overlay and round shuffling match
// the reference and only the transport differs. RunRobust has validated
// every experiment it builds.
func runRobustRep(cfg RobustConfig, rep int) (out robustRep, err error) {
	x := robustExperiment(cfg, rep)
	w, err := workloadFor(x)
	if err != nil {
		return out, err
	}
	_, shared, err := pretrain(x, w)
	if err != nil {
		return out, err
	}
	s, err := prepareStack(x, w, shared)
	if err != nil {
		return out, err
	}
	series, _ := s.run()
	out.syncActive = float64(s.c.ActivePMs())
	out.syncMig = float64(s.c.Migrations)
	out.syncSLAV = series.SLAV

	for _, drop := range cfg.DropProbs {
		for _, lat := range cfg.Latencies {
			s, err := prepareStack(robustCell(x, drop, lat), w, shared)
			if err != nil {
				return out, err
			}
			series, _ := s.run()
			cons, tr := s.async, s.tr
			out.cells = append(out.cells, robustCellRep{
				active:     float64(s.c.ActivePMs()),
				migrations: float64(s.c.Migrations),
				slav:       series.SLAV,
				sent:       tr.Sent, delivered: tr.Delivered, dropped: tr.Dropped,
				offers: cons.Offers, commits: cons.Commits,
				aborts: cons.Aborts, expired: cons.Expired,
				leaked: s.c.OpenReservations(),
			})
		}
	}
	return out, nil
}
