package main

import (
	"fmt"
	"io"

	glapsim "github.com/glap-sim/glap"
)

// runRobust executes the loss × latency robustness grid of the
// message-passing consolidation protocol and prints the comparison against
// the synchronous reference.
func runRobust(w io.Writer, cfg glapsim.RobustConfig) error {
	fmt.Fprintf(w, "\n== robustness: async consolidation under loss × latency (%d PMs, ratio %d, %d rounds, %d reps) ==\n",
		cfg.PMs, cfg.Ratio, cfg.Rounds, cfg.Reps)
	res, err := glapsim.RunRobust(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sync reference: active %.1f (median %.0f), migrations %.0f, SLAV %.3g\n",
		res.SyncActive.Mean, res.SyncActive.Median, res.SyncMigrations.Mean, res.SyncSLAV.Mean)
	rows := [][]string{{"cell", "active (mean)", "Δ vs sync", "migr.", "SLAV",
		"offers", "commits", "aborts", "expired", "dropped/sent", "leaks"}}
	for _, c := range res.Cells {
		rows = append(rows, fields("%s\t%.1f\t%+.1f\t%.0f\t%.3g\t%d\t%d\t%d\t%d\t%d/%d\t%d",
			c.Cell, c.Active.Mean, c.Active.Mean-res.SyncActive.Mean,
			c.Migrations.Mean, c.SLAV.Mean,
			c.Offers, c.Commits, c.Aborts, c.Expired,
			c.Dropped, c.Sent, c.LeakedReservations))
	}
	table{rows: rows}.print(w)
	return nil
}
