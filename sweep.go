package glapsim

import (
	"fmt"

	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/metrics"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
)

// sweepRun is one fully seeded run: its experiment, the name its errors
// carry and an optional hook on the prepared stack (the crash scenario's
// fault plan and table gossip). The function install returns runs after the
// rounds and reports what failed in between.
type sweepRun struct {
	name    string
	x       Experiment
	install func(s *stack) (finish func() error)
}

// result is the run as Run and RunReplicated report it.
func (s *stack) result() *Result {
	return &Result{Series: s.series, Cluster: s.c, Pretrain: s.pre, BFDBaseline: bfdOracle(s.c), Network: s.network}
}

// outcome is the record the grid, robustness and scenario reducers read: a
// run's series and final accounting, without its engine or cluster. The
// message counters are glap-async's and zero under every other policy.
type outcome struct {
	series                           *metrics.Series
	network                          *metrics.NetworkSeries
	active, bfd, leaked              int
	migrations, failed               int64
	energyKWh                        float64
	sent, delivered, dropped         int64
	offers, commits, aborts, expired int64
}

func (s *stack) outcome() outcome {
	c := s.c
	o := outcome{
		series: s.series, network: s.network,
		active: c.ActivePMs(), bfd: bfdOracle(c), leaked: c.OpenReservations(),
		migrations: c.Migrations, failed: c.FailedPlacements, energyKWh: metrics.TotalEnergyKWh(c),
	}
	if a, tr := s.async, s.tr; a != nil {
		o.sent, o.delivered, o.dropped = tr.Sent, tr.Delivered, tr.Dropped
		o.offers, o.commits, o.aborts, o.expired = a.Offers, a.Commits, a.Aborts, a.Expired
	}
	return o
}

// summarize summarises f over the records.
func summarize(recs []outcome, f func(outcome) float64) stats.Summary {
	xs := make([]float64, len(recs))
	for i, o := range recs {
		xs[i] = f(o)
	}
	return stats.Summarize(xs)
}

// pretrainKey is x without the fields that change only how the learned
// tables are used (Policy, Net, TopologyAware) or how fast (Workers). Runs
// with equal keys learn the same tables from the same workload.
func pretrainKey(x Experiment) Experiment {
	x.Policy, x.Net, x.TopologyAware, x.Workers = "", NetConfig{}, false, 0
	return x
}

// sweep is the package's one replication loop. It validates every run
// before it starts any, groups the runs by pretrainKey, plays the groups
// over sim.RunReplications with workers (<= 0: GOMAXPROCS), and returns keep
// of each run in list order whatever the worker count. An error is that of
// the first failing group, in the order the groups first appear.
func sweep[R any](runs []sweepRun, workers int, keep func(*stack) R) ([]R, error) {
	var groups [][]int
	index := map[Experiment]int{}
	for i, r := range runs {
		if err := r.x.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		g, ok := index[pretrainKey(r.x)]
		if !ok {
			g = len(groups)
			index[pretrainKey(r.x)] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	out := make([]R, len(runs))
	errs := sim.RunReplications(len(groups), workers, func(g int) error {
		if i, err := play(runs, groups[g], func(i int, s *stack) { out[i] = keep(s) }); err != nil {
			return fmt.Errorf("%s: %w", runs[i].name, err)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// play is the body of every run. It plays the valid runs of group, which
// share one pretrainKey, in order over one workload, pre-trains before the
// first run whose policy needs it (unless the experiment injects
// PretrainedTables), and hands each played stack to each before the next
// run starts. It returns the index of the run that failed.
func play(runs []sweepRun, group []int, each func(i int, s *stack)) (int, error) {
	x := runs[group[0]].x
	w, err := workloadFor(x)
	if err != nil {
		return group[0], err
	}
	var pre *glap.PretrainResult
	shared := x.PretrainedTables
	for _, i := range group {
		r := runs[i]
		learns := r.x.Policy.Pretrains() && x.PretrainedTables == nil
		if learns && pre == nil {
			if pre, shared, err = pretrain(r.x, w); err != nil {
				return i, err
			}
		}
		s, err := prepareStack(r.x, w, shared)
		if err != nil {
			return i, err
		}
		if learns {
			s.pre = pre
		}
		finish := func() error { return nil }
		if r.install != nil {
			finish = r.install(s)
		}
		s.run()
		if err := finish(); err != nil {
			return i, err
		}
		each(i, s)
	}
	return -1, nil
}

// replications is x replicated reps times: replication r runs under
// sim.ReplicationSeed(x.Seed, r) and regenerates its workload from that seed
// (a set x.Workload is ignored).
func replications(name string, x Experiment, reps int) []sweepRun {
	var runs []sweepRun
	for r := 0; r < reps; r++ {
		xr := x
		xr.Seed, xr.Workload = sim.ReplicationSeed(x.Seed, r), nil
		runs = append(runs, sweepRun{name: fmt.Sprintf("%s replication %d", name, r), x: xr})
	}
	return runs
}
