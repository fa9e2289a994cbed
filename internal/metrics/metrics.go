// Package metrics computes the evaluation metrics of Section V-B: SLAVO,
// SLALM and SLAV (Equations 1-2), active/overloaded PM counts, migration
// counters and energy overheads — plus the per-round series collector every
// experiment samples "at the end of each round".
package metrics

import (
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/sim"
)

// SLAVO is Eq. 1 left: the mean, over PMs that were ever active, of the
// fraction of active time spent at 100% CPU utilisation.
func SLAVO(c *dc.Cluster) float64 {
	n, sum := 0, 0.0
	for _, pm := range c.PMs {
		if active := pm.ActiveSeconds(); active > 0 {
			n++
			sum += pm.OverloadSeconds() / active
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// SLALM is Eq. 1 right: the mean, over VMs, of the migration-induced CPU
// degradation relative to the VM's total requested CPU.
func SLALM(c *dc.Cluster) float64 {
	if len(c.VMs) == 0 {
		return 0
	}
	sum := 0.0
	for _, vm := range c.VMs {
		sum += vm.DegradationRatio()
	}
	return sum / float64(len(c.VMs))
}

// SLAV is Eq. 2: SLAVO × SLALM.
func SLAV(c *dc.Cluster) float64 { return SLAVO(c) * SLALM(c) }

// Snapshot captures the end-of-round counters of one cluster.
type Snapshot struct {
	Round            int
	ActivePMs        int
	OverloadedPMs    int
	Migrations       int64
	MigrationEnergyJ float64
}

// Series is a per-round time series of snapshots plus the cluster's final
// SLA metrics once the run completes.
type Series struct {
	Samples []Snapshot

	// Final metrics, filled by Finalize.
	SLAVO float64
	SLALM float64
	SLAV  float64

	// baseMigrations is the cluster's cumulative migration count at the
	// moment observation began (the last skipped round, or attach time).
	// MigrationsPerRound deltas start from it so migrations performed before
	// Collector.From are not folded into the first observed round.
	baseMigrations int64
}

// Collector samples a cluster at the end of every engine round.
type Collector struct {
	C      *dc.Cluster
	Series *Series
	// From discards samples before this round (used to skip pre-training
	// windows when policies share one engine).
	From int
}

// Attach registers a collector on engine e observing cluster c and returns
// its series.
func Attach(e *sim.Engine, c *dc.Cluster, fromRound int) *Series {
	col := &Collector{C: c, Series: &Series{baseMigrations: c.Migrations}, From: fromRound}
	e.Observe(func(e *sim.Engine, round int) {
		if round < col.From {
			col.Series.baseMigrations = c.Migrations
			return
		}
		col.Series.Samples = append(col.Series.Samples, Snapshot{
			Round:            round,
			ActivePMs:        c.ActivePMs(),
			OverloadedPMs:    c.OverloadedPMs(),
			Migrations:       c.Migrations,
			MigrationEnergyJ: c.MigrationEnergyJ,
		})
	})
	return col.Series
}

// Finalize fills the series' SLA metrics from the cluster's accumulated
// accounting.
func (s *Series) Finalize(c *dc.Cluster) {
	s.SLAVO = SLAVO(c)
	s.SLALM = SLALM(c)
	s.SLAV = SLAV(c)
}

// Last returns the final snapshot; ok is false for an empty series.
func (s *Series) Last() (Snapshot, bool) {
	if len(s.Samples) == 0 {
		return Snapshot{}, false
	}
	return s.Samples[len(s.Samples)-1], true
}

// OverloadedPerRound extracts the overloaded-PM count series as float64 for
// summary statistics.
func (s *Series) OverloadedPerRound() []float64 {
	out := make([]float64, len(s.Samples))
	for i, sm := range s.Samples {
		out[i] = float64(sm.OverloadedPMs)
	}
	return out
}

// MigrationsPerRound extracts the per-round (non-cumulative) migration
// counts. The first delta is taken against the cumulative count when
// observation began, so a collector attached with From > 0 does not fold
// every pre-window migration into its first sample.
func (s *Series) MigrationsPerRound() []float64 {
	out := make([]float64, len(s.Samples))
	prev := s.baseMigrations
	for i, sm := range s.Samples {
		out[i] = float64(sm.Migrations - prev)
		prev = sm.Migrations
	}
	return out
}

// CumulativeMigrations extracts the running migration totals.
func (s *Series) CumulativeMigrations() []float64 {
	out := make([]float64, len(s.Samples))
	for i, sm := range s.Samples {
		out[i] = float64(sm.Migrations)
	}
	return out
}

// FractionOverloaded returns, per round, overloaded/active (0 when no PM is
// active) — the Figure 6 metric.
func (s *Series) FractionOverloaded() []float64 {
	out := make([]float64, len(s.Samples))
	for i, sm := range s.Samples {
		if sm.ActivePMs > 0 {
			out[i] = float64(sm.OverloadedPMs) / float64(sm.ActivePMs)
		}
	}
	return out
}

// TotalEnergyKWh returns the cluster's total server energy over the run —
// baseline power of active PMs plus the live-migration overhead — in kWh,
// the unit Beloglazov & Buyya report energy in.
func TotalEnergyKWh(c *dc.Cluster) float64 {
	total := c.MigrationEnergyJ
	for _, pm := range c.PMs {
		total += pm.EnergyJ()
	}
	return total / 3.6e6
}
