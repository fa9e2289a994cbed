package glapsim

import (
	"cmp"
	"fmt"
	"sort"

	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/metrics"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
)

// Grid configures a sweep over cluster sizes, VM:PM ratios and policies with
// repeated replications — the experimental grid of Section V (sizes 500,
// 1000, 2000 × ratios 2, 3, 4 × 20 repetitions at full paper scale).
type Grid struct {
	// Sizes are the cluster sizes (PM counts).
	Sizes []int
	// Ratios are the VM:PM ratios.
	Ratios []int
	// Rounds is the consolidation-run length.
	Rounds int
	// Reps is the number of replications per cell.
	Reps int
	// Workers bounds replication parallelism (<= 0: GOMAXPROCS).
	Workers int
	// Seed is the experiment master seed.
	Seed uint64
	// Policies to evaluate; nil selects all four.
	Policies []Policy
	// GLAP overrides the GLAP configuration.
	GLAP glap.Config
}

// withDefaults fills zero fields.
func (g Grid) withDefaults() Grid {
	g.Sizes = orDefault(g.Sizes, []int{100})
	g.Ratios = orDefault(g.Ratios, []int{2, 3, 4})
	g.Rounds, g.Reps, g.Seed = cmp.Or(g.Rounds, 240), cmp.Or(g.Reps, 5), cmp.Or(g.Seed, 1)
	g.Policies = orDefault(g.Policies, Policies)
	return g
}

// orDefault is s, or d when s is empty.
func orDefault[S ~[]E, E any](s, d S) S {
	if len(s) == 0 {
		return d
	}
	return s
}

// Cell identifies one grid cell.
type Cell struct {
	PMs    int
	Ratio  int
	Policy Policy
}

// String renders e.g. "500-3/glap".
func (c Cell) String() string { return fmt.Sprintf("%d-%d/%s", c.PMs, c.Ratio, c.Policy) }

// CellStats aggregates one cell's replications into the statistics the
// paper's figures report (median and 10th/90th percentiles).
type CellStats struct {
	Cell Cell
	Reps int

	// Overloaded summarises per-round overloaded-PM counts pooled across
	// rounds and replications (Figure 7).
	Overloaded stats.Summary
	// FracOverloaded summarises the per-round overloaded/active fraction
	// (Figure 6).
	FracOverloaded stats.Summary
	// Active summarises end-of-run active PM counts across replications
	// (Figure 6).
	Active stats.Summary
	// BFDBaseline summarises the oracle BFD packing across replications.
	BFDBaseline stats.Summary
	// MigrationsPerRound summarises per-round migration counts pooled
	// across rounds and replications (Figure 8).
	MigrationsPerRound stats.Summary
	// TotalMigrations summarises end-of-run totals across replications.
	TotalMigrations stats.Summary
	// CumMigrations is the per-round cumulative migration count averaged
	// over replications (Figure 9).
	CumMigrations []float64
	// EnergyKJ summarises total migration energy overhead across
	// replications, in kJ (Figure 10, Eq. 3).
	EnergyKJ stats.Summary
	// SLAV summarises the final SLAV metric across replications (Table I).
	SLAV stats.Summary
	// SLAVO and SLALM are its factors.
	SLAVO, SLALM stats.Summary
	// TotalEnergyKWh summarises total server energy (baseline + migration)
	// across replications; ESV is energy × SLAV.
	TotalEnergyKWh stats.Summary
	ESV            stats.Summary
}

// cellSeed gives each (size, ratio) cell its own seed, shared across
// policies so comparisons are paired on identical workloads and placements.
func cellSeed(seed uint64, cell Cell) uint64 {
	return sim.NewRNG(seed).Derive(uint64(cell.PMs), uint64(cell.Ratio)).Uint64()
}

// aggregate reduces one cell's replications to the statistics of the paper's
// figures.
func aggregate(cell Cell, rounds int, recs []outcome) *CellStats {
	pooled := func(per func(*metrics.Series) []float64) stats.Summary {
		var xs []float64
		for _, o := range recs {
			xs = append(xs, per(o.series)...)
		}
		return stats.Summarize(xs)
	}
	last := func(o outcome) metrics.Snapshot { l, _ := o.series.Last(); return l }
	cum := make([]float64, rounds)
	for _, o := range recs {
		for i, v := range o.series.CumulativeMigrations() {
			if i < len(cum) {
				cum[i] += v / float64(len(recs))
			}
		}
	}
	return &CellStats{
		Cell: cell, Reps: len(recs),
		Overloaded:         pooled((*metrics.Series).OverloadedPerRound),
		FracOverloaded:     pooled((*metrics.Series).FractionOverloaded),
		Active:             summarize(recs, func(o outcome) float64 { return float64(last(o).ActivePMs) }),
		BFDBaseline:        summarize(recs, func(o outcome) float64 { return float64(o.bfd) }),
		MigrationsPerRound: pooled((*metrics.Series).MigrationsPerRound),
		TotalMigrations:    summarize(recs, func(o outcome) float64 { return float64(last(o).Migrations) }),
		CumMigrations:      cum,
		EnergyKJ:           summarize(recs, func(o outcome) float64 { return last(o).MigrationEnergyJ / 1000 }),
		SLAV:               summarize(recs, func(o outcome) float64 { return o.series.SLAV }),
		SLAVO:              summarize(recs, func(o outcome) float64 { return o.series.SLAVO }),
		SLALM:              summarize(recs, func(o outcome) float64 { return o.series.SLALM }),
		TotalEnergyKWh:     summarize(recs, func(o outcome) float64 { return o.energyKWh }),
		ESV:                summarize(recs, func(o outcome) float64 { return o.energyKWh * o.series.SLAV }),
	}
}

// RunGrid executes every cell of the grid and returns the aggregated stats
// keyed by cell, plus the deterministic cell order for presentation. Every
// cell is validated before any runs, and an error names its cell.
func RunGrid(g Grid) (map[Cell]*CellStats, []Cell, error) {
	g = g.withDefaults()
	runs, order := gridRuns(g)
	recs, err := sweep(runs, g.Workers, (*stack).outcome)
	if err != nil {
		return nil, nil, err
	}
	reps := max(g.Reps, 0)
	out := make(map[Cell]*CellStats, len(order))
	for i, cell := range order {
		out[cell] = aggregate(cell, g.Rounds, recs[i*reps:(i+1)*reps])
	}
	return out, order, nil
}

// gridRuns lists the grid's runs, cell by cell in presentation order and
// each cell's replications in turn, and returns that cell order.
func gridRuns(g Grid) ([]sweepRun, []Cell) {
	var runs []sweepRun
	var order []Cell
	for _, size := range g.Sizes {
		for _, ratio := range g.Ratios {
			for _, p := range g.Policies {
				cell := Cell{PMs: size, Ratio: ratio, Policy: p}
				x := Experiment{
					PMs: size, Ratio: ratio, Rounds: g.Rounds,
					Seed: cellSeed(g.Seed, cell), Policy: p, GLAP: g.GLAP,
				}
				runs = append(runs, replications("cell "+cell.String(), x, g.Reps)...)
				order = append(order, cell)
			}
		}
	}
	return runs, order
}

// ConvergenceResult is the Figure 5 experiment outcome for one VM:PM ratio:
// the cosine-similarity trajectory across the learning (WOG) and aggregation
// (WG) phases.
type ConvergenceResult struct {
	Ratio  int
	Rounds []int
	Cosine []float64
	// AggStart is the first aggregation-phase round.
	AggStart int
}

// RunConvergence reproduces Figure 5: it pre-trains GLAP on clusters of the
// given size for each ratio, sampling Q-value similarity every measureEvery
// rounds through both phases.
func RunConvergence(pms int, ratios []int, cfg glap.Config, seed uint64, measureEvery int) ([]*ConvergenceResult, error) {
	ratios, measureEvery = orDefault(ratios, []int{2, 3, 4}), max(measureEvery, 1)
	var out []*ConvergenceResult
	for _, ratio := range ratios {
		x := Experiment{
			PMs: pms, Ratio: ratio, Rounds: 720,
			Seed: sim.NewRNG(seed).Derive(uint64(ratio)).Uint64(), Policy: PolicyGLAP,
		}
		w, err := workloadFor(x)
		if err != nil {
			return nil, err
		}
		cl, err := buildCluster(x, w)
		if err != nil {
			return nil, err
		}
		pre, err := glap.Pretrain(cfg, cl, deriveSeed(x.Seed, seedPretrain), glap.PretrainOptions{
			MeasureEvery: measureEvery,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, &ConvergenceResult{
			Ratio:    ratio,
			Rounds:   pre.ConvergenceRound,
			Cosine:   pre.Convergence,
			AggStart: pre.LearnRounds,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio < out[j].Ratio })
	return out, nil
}
