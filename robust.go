package glapsim

import (
	"fmt"

	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/metrics"
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
// runs the synchronous reference, and then replays every (loss, latency)
// cell on an identically placed cluster with the same shared tables, so all
// comparisons are paired.
func RunRobust(cfg RobustConfig) (*RobustResult, error) {
	cfg = cfg.withDefaults()
	reps := sim.RunReplications(cfg.Reps, cfg.Workers, func(rep int) robustRep {
		return runRobustRep(cfg, rep)
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

// runRobustRep executes one full replication: pretrain, sync reference, and
// every async grid cell.
func runRobustRep(cfg RobustConfig, rep int) (out robustRep) {
	x := Experiment{
		PMs: cfg.PMs, Ratio: cfg.Ratio, Rounds: cfg.Rounds,
		Seed: sim.ReplicationSeed(cfg.Seed, rep), Policy: PolicyGLAP, GLAP: cfg.GLAP,
		// prepareStack's Cyclon overlay defaults these; the historical grid
		// wired cyclon.New(20, 8) explicitly, so pin the same overlay
		// parameters for seed-for-seed identical cells.
		CyclonViewSize: 20, CyclonShuffleLen: 8,
	}
	if err := x.Validate(); err != nil {
		out.err = err
		return
	}
	w, err := workloadFor(x)
	if err != nil {
		out.err = err
		return
	}
	pre, err := buildCluster(x, w)
	if err != nil {
		out.err = err
		return
	}
	pretrain, err := glap.Pretrain(x.GLAP, pre, deriveSeed(x.Seed, seedPretrain), x.Pretrain)
	if err != nil {
		out.err = err
		return
	}
	shared, err := glap.SharedTables(pretrain)
	if err != nil {
		out.err = err
		return
	}
	// prepareStack builds each paired run — identically placed cluster, same
	// engine seed — so the sync reference and every grid cell differ only in
	// the transport.

	// Synchronous reference.
	{
		c, e, _, err := prepareStack(x, w, shared)
		if err != nil {
			out.err = err
			return
		}
		series := metrics.Attach(e, c, 0)
		e.RunRounds(x.Rounds)
		series.Finalize(c)
		out.syncActive = float64(c.ActivePMs())
		out.syncMig = float64(c.Migrations)
		out.syncSLAV = series.SLAV
	}

	// Async grid: same engine seed per cell, so the overlay and round
	// shuffling match the reference and only the transport differs.
	for _, drop := range cfg.DropProbs {
		for _, lat := range cfg.Latencies {
			xc := x
			xc.Policy = PolicyGLAPAsync
			xc.Net = NetConfig{Latency: lat, DropProb: drop}
			c, e, ctx, err := prepareStack(xc, w, shared)
			if err != nil {
				out.err = err
				return
			}
			cons, tr := ctx.Artifacts.AsyncConsolidate, ctx.Artifacts.Transport
			series := metrics.Attach(e, c, 0)
			e.RunRounds(x.Rounds)
			e.RunEvents(-1)
			series.Finalize(c)
			out.cells = append(out.cells, robustCellRep{
				active:     float64(c.ActivePMs()),
				migrations: float64(c.Migrations),
				slav:       series.SLAV,
				sent:       tr.Sent, delivered: tr.Delivered, dropped: tr.Dropped,
				offers: cons.Offers, commits: cons.Commits,
				aborts: cons.Aborts, expired: cons.Expired,
				leaked: c.OpenReservations(),
			})
		}
	}
	return
}
