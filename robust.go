package glapsim

import (
	"cmp"
	"fmt"

	"github.com/glap-sim/glap/internal/glap"
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
	// Reps is the number of replications (default 3; a negative count is
	// refused).
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
	r.PMs, r.Ratio, r.Rounds = cmp.Or(r.PMs, 50), cmp.Or(r.Ratio, 2), cmp.Or(r.Rounds, 60)
	r.Reps, r.Seed = cmp.Or(r.Reps, 3), cmp.Or(r.Seed, 1)
	r.DropProbs = orDefault(r.DropProbs, []float64{0, 0.1, 0.2})
	r.Latencies = orDefault(r.Latencies, []int64{1, 30, 90})
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

// RunRobust executes the robustness grid. Replication r runs the
// synchronous reference — the run Run makes of a GLAP experiment of the
// configured shape on Cyclon view 20 and shuffle 8, under
// sim.ReplicationSeed(cfg.Seed, r) — and replays it over messages in every
// (loss, latency) cell. The cells share the reference's pre-training and
// workload, and prepareStack gives each an identically placed cluster and
// the same engine seed, so the overlay and round shuffling match the
// reference and only the transport differs. Every run is validated before
// any starts.
func RunRobust(cfg RobustConfig) (*RobustResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Reps < 0 {
		return nil, fmt.Errorf("glapsim: negative RobustConfig.Reps %d", cfg.Reps)
	}
	x := Experiment{
		PMs: cfg.PMs, Ratio: cfg.Ratio, Rounds: cfg.Rounds, Seed: cfg.Seed,
		Policy: PolicyGLAP, GLAP: cfg.GLAP, CyclonShuffleLen: 8,
	}
	runs := replications("robustness reference", x, cfg.Reps)
	var cells []RobustCell
	for _, drop := range cfg.DropProbs {
		for _, lat := range cfg.Latencies {
			cell := RobustCell{DropProb: drop, Latency: lat}
			xc := x
			xc.Policy, xc.Net = PolicyGLAPAsync, NetConfig{Latency: lat, DropProb: drop}
			runs = append(runs, replications("robustness cell "+cell.String(), xc, cfg.Reps)...)
			cells = append(cells, cell)
		}
	}
	recs, err := sweep(runs, cfg.Workers, (*stack).outcome)
	if err != nil {
		return nil, err
	}
	n := cfg.Reps // the reference's replications, then each cell's
	active := func(o outcome) float64 { return float64(o.active) }
	migrations := func(o outcome) float64 { return float64(o.migrations) }
	slav := func(o outcome) float64 { return o.series.SLAV }
	ref := recs[:n]
	res := &RobustResult{
		SyncActive: summarize(ref, active), SyncMigrations: summarize(ref, migrations), SyncSLAV: summarize(ref, slav),
	}
	for i, cell := range cells {
		col := recs[(1+i)*n : (2+i)*n]
		cs := &RobustCellStats{
			Cell: cell, Active: summarize(col, active), Migrations: summarize(col, migrations), SLAV: summarize(col, slav),
		}
		for _, o := range col {
			cs.Sent += o.sent
			cs.Delivered += o.delivered
			cs.Dropped += o.dropped
			cs.Offers += o.offers
			cs.Commits += o.commits
			cs.Aborts += o.aborts
			cs.Expired += o.expired
			cs.LeakedReservations += o.leaked
		}
		res.Cells = append(res.Cells, cs)
	}
	return res, nil
}
