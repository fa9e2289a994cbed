package glap

import (
	"math"
	"slices"
	"testing"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/metrics"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

func TestInstallContinuousValidation(t *testing.T) {
	cl := genCluster(t, 4, 8, 10, 1, 1)
	e := sim.NewEngine(4, 1)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LearnRounds: 10, AggRounds: 5}
	if _, err := InstallContinuous(e, b, cfg, 10, PretrainOptions{}); err == nil {
		t.Fatal("cycle shorter than learning phase should fail")
	}
	if _, err := InstallContinuous(e, b, Config{Alpha: 9}, 1000, PretrainOptions{}); err == nil {
		t.Fatal("invalid config should fail")
	}
}

func TestInstallContinuousRelearns(t *testing.T) {
	cl := genCluster(t, 16, 32, 200, 23, 23)
	e := sim.NewEngine(16, 23)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LearnRounds: 15, AggRounds: 10}
	if _, err := InstallContinuous(e, b, cfg, 60, PretrainOptions{}); err != nil {
		t.Fatal(err)
	}

	// Track Q-cell growth over time: after the first cycle the tables are
	// populated; a later re-learning cycle must keep them fresh (cell count
	// never resets, values keep being updated).
	sizeAt := map[int]int{}
	e.Observe(func(e *sim.Engine, round int) {
		if round == 30 || round == 85 || round == 145 {
			total := 0
			for _, n := range e.Nodes() {
				tb := TablesOf(e, n)
				total += tb.Out.Len() + tb.In.Len()
			}
			sizeAt[round] = total
		}
	})
	e.RunRounds(150)

	if sizeAt[30] == 0 {
		t.Fatal("no Q-cells after first learning cycle")
	}
	if sizeAt[85] < sizeAt[30] || sizeAt[145] < sizeAt[85] {
		t.Fatalf("Q coverage shrank across re-learning cycles: %v", sizeAt)
	}
	// Consolidation ran alongside: PMs were switched off.
	if cl.ActivePMs() >= 16 {
		t.Fatal("continuous stack did not consolidate")
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if cl.Migrations == 0 {
		t.Fatal("no migrations under continuous deployment")
	}
}

func TestInstallContinuousConsolidationWaitsForTables(t *testing.T) {
	// Consolidation must not act before the first learning cycle ends.
	cl := genCluster(t, 8, 16, 100, 29, 29)
	e := sim.NewEngine(8, 29)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LearnRounds: 20, AggRounds: 10}
	if _, err := InstallContinuous(e, b, cfg, 100, PretrainOptions{}); err != nil {
		t.Fatal(err)
	}
	e.RunRounds(29) // one round short of the consolidation start
	if cl.Migrations != 0 {
		t.Fatalf("%d migrations before pre-training completed", cl.Migrations)
	}
}

// TestInstallContinuousWorkerCountDifferential runs the continuous deployment
// over a streaming workload at Workers 1, 2 and 8. The per-round series, the
// final SLA metrics and the energy must come out bit for bit the same, and with
// a spare worker the look-ahead must have run: the consolidation-only rounds
// of every cycle are sequential passes.
func TestInstallContinuousWorkerCountDifferential(t *testing.T) {
	const pms, rounds, cycle = 30, 130, 50
	run := func(workers int) (*metrics.Series, float64, int) {
		set, err := trace.GenerateStreaming(trace.DefaultGenConfig(3*pms, rounds, 31))
		if err != nil {
			t.Fatal(err)
		}
		c, err := dc.New(dc.Config{PMs: pms, Workload: set})
		if err != nil {
			t.Fatal(err)
		}
		c.PlaceRandom(sim.NewRNG(31).Intn)
		e := sim.NewEngine(pms, 31)
		e.Workers = workers
		b, err := policy.Bind(e, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := InstallContinuous(e, b, Config{LearnRounds: 20, AggRounds: 10}, cycle, PretrainOptions{}); err != nil {
			t.Fatal(err)
		}
		ahead := 0
		e.LookAhead(func(int) { ahead++ })
		series := metrics.Attach(e, c, 0)
		e.RunRounds(rounds)
		series.Finalize(c)
		return series, metrics.TotalEnergyKWh(c), ahead
	}
	base, baseEnergy, _ := run(1)
	if last, _ := base.Last(); last.Migrations == 0 {
		t.Fatal("no migrations: the differential would compare idle runs")
	}
	for _, workers := range []int{2, 8} {
		got, energy, ahead := run(workers)
		if !slices.Equal(got.Samples, base.Samples) {
			t.Fatalf("Workers=%d: series differs from Workers=1", workers)
		}
		for _, m := range [][2]float64{{got.SLAVO, base.SLAVO}, {got.SLALM, base.SLALM}, {energy, baseEnergy}} {
			if math.Float64bits(m[0]) != math.Float64bits(m[1]) {
				t.Fatalf("Workers=%d: final metric %v, Workers=1 %v", workers, m[0], m[1])
			}
		}
		if ahead == 0 {
			t.Fatalf("Workers=%d: the look-ahead never ran beside a consolidation-only round", workers)
		}
	}
}
