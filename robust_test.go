package glapsim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
)

// TestRobustGridEquivalenceAndLeaks runs a small loss × latency grid and
// checks the two acceptance gates of the message-passing protocol: at zero
// loss and unit latency the async packing matches the synchronous reference
// within tolerance, and no cell — including 20% loss — leaks reservations
// once the run drains.
func TestRobustGridEquivalenceAndLeaks(t *testing.T) {
	cfg := RobustConfig{
		PMs: 20, Ratio: 2, Rounds: 30, Reps: 2, Seed: 7,
		DropProbs: []float64{0, 0.2},
		Latencies: []int64{1, 30},
	}
	res, err := RunRobust(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(res.Cells))
	}

	// Cell 0 is DropProb 0, latency 1: the equivalence point.
	ideal := res.Cells[0]
	if ideal.Cell.DropProb != 0 || ideal.Cell.Latency != 1 {
		t.Fatalf("unexpected cell order: first cell is %s", ideal.Cell)
	}
	if diff := math.Abs(ideal.Active.Mean - res.SyncActive.Mean); diff > 4 {
		t.Fatalf("async active %.1f vs sync %.1f: difference %.1f exceeds tolerance",
			ideal.Active.Mean, res.SyncActive.Mean, diff)
	}
	if ideal.Active.Mean >= float64(cfg.PMs) {
		t.Fatalf("async protocol did not consolidate: %.1f PMs active", ideal.Active.Mean)
	}
	if ideal.Commits == 0 {
		t.Fatal("no migrations committed through the message path")
	}

	sawLoss := false
	for _, cell := range res.Cells {
		if cell.LeakedReservations != 0 {
			t.Fatalf("cell %s leaked %d reservations", cell.Cell, cell.LeakedReservations)
		}
		if cell.Sent != cell.Delivered+cell.Dropped {
			t.Fatalf("cell %s: transport counters unbalanced: sent=%d delivered=%d dropped=%d",
				cell.Cell, cell.Sent, cell.Delivered, cell.Dropped)
		}
		if cell.Cell.DropProb > 0 && cell.Dropped > 0 {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Fatal("loss injection never fired in the lossy cells")
	}

	// The replication fan-out is unobservable: one worker reproduces the
	// whole result, sync reference and every async cell.
	cfg.Workers = 1
	seq, err := RunRobust(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, seq) {
		t.Fatalf("robust grid diverged between default workers and Workers=1:\n%+v\nvs\n%+v", res, seq)
	}
}

// TestRobustSyncReferenceIsRun: the grid's synchronous reference of
// replication r is Run of the GLAP experiment below — the same pre-training
// overlay, stack and run tail — so its active PMs, migrations and SLAV
// summaries are bit-equal to those of the Run results.
func TestRobustSyncReferenceIsRun(t *testing.T) {
	cfg := RobustConfig{
		PMs: 30, Ratio: 2, Rounds: 40, Reps: 2, Seed: 3, GLAP: fastGLAP(),
		DropProbs: []float64{0}, Latencies: []int64{1},
	}
	res, err := RunRobust(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var active, migrations, slav []float64
	for r := 0; r < cfg.Reps; r++ {
		run, err := Run(Experiment{
			PMs: cfg.PMs, Ratio: cfg.Ratio, Rounds: cfg.Rounds, Seed: sim.ReplicationSeed(cfg.Seed, r),
			Policy: PolicyGLAP, GLAP: cfg.GLAP, CyclonShuffleLen: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		active = append(active, float64(run.Cluster.ActivePMs()))
		migrations = append(migrations, float64(run.Cluster.Migrations))
		slav = append(slav, run.Series.SLAV)
	}
	want := RobustResult{SyncActive: stats.Summarize(active), SyncMigrations: stats.Summarize(migrations), SyncSLAV: stats.Summarize(slav)}
	got := RobustResult{SyncActive: res.SyncActive, SyncMigrations: res.SyncMigrations, SyncSLAV: res.SyncSLAV}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sync reference differs from Run:\n got %+v\nwant %+v", got, want)
	}
}

// TestRobustRejectsHostileGrid: a loss probability outside [0, 1] — NaN
// included — or a negative latency is refused with an error naming the cell,
// before any replication runs.
func TestRobustRejectsHostileGrid(t *testing.T) {
	cases := []struct {
		drops []float64
		lats  []int64
	}{
		{[]float64{2}, []int64{1}},
		{[]float64{-0.1}, []int64{1}},
		{[]float64{math.NaN()}, []int64{1}},
		{[]float64{0}, []int64{-1}},
	}
	for _, c := range cases {
		cfg := RobustConfig{PMs: 20, Ratio: 2, Rounds: 10, Reps: 1, DropProbs: c.drops, Latencies: c.lats}
		res, err := RunRobust(cfg)
		if err == nil || !strings.Contains(err.Error(), "robustness cell") {
			t.Fatalf("drops %v lats %v: got %+v, %v; want the cell refused", c.drops, c.lats, res, err)
		}
	}
}

// TestRobustDefaults pins the zero-value config fill-in.
func TestRobustDefaults(t *testing.T) {
	cfg := RobustConfig{}.withDefaults()
	if cfg.PMs == 0 || cfg.Ratio == 0 || cfg.Rounds == 0 || cfg.Reps == 0 || cfg.Seed == 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	if len(cfg.DropProbs) == 0 || len(cfg.Latencies) == 0 {
		t.Fatalf("grid defaults not filled: %+v", cfg)
	}
}
