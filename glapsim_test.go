package glapsim

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/trace"
)

// fastGLAP returns a GLAP config with short pre-training for tests.
func fastGLAP() glap.Config {
	return glap.Config{LearnRounds: 30, AggRounds: 20}
}

func smallExperiment(p Policy) Experiment {
	return Experiment{
		PMs: 20, Ratio: 2, Rounds: 40, Seed: 7, Policy: p, GLAP: fastGLAP(),
	}
}

func TestExperimentValidation(t *testing.T) {
	cases := []Experiment{
		{PMs: 1, Ratio: 2, Rounds: 10, Policy: PolicyGLAP},
		{PMs: 10, Ratio: 0, Rounds: 10, Policy: PolicyGLAP},
		{PMs: 10, Ratio: 2, Rounds: 0, Policy: PolicyGLAP},
		{PMs: 10, Ratio: 2, Rounds: 10, Policy: "bogus"},
		{PMs: 10, Ratio: 2, Rounds: 10, Policy: PolicyGLAP, GLAP: glap.Config{LearnRounds: -1}},
		{PMs: 10, Ratio: 2, Rounds: 10, Policy: PolicyGLAPAsync, GLAP: glap.Config{LearnRounds: -1}},
	}
	for i, x := range cases {
		if err := x.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	good := smallExperiment(PolicyGRMP)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// A policy that never pre-trains never reads GLAP; zero fields default.
	for _, x := range []Experiment{
		{PMs: 10, Ratio: 2, Rounds: 10, Policy: PolicyGRMP, GLAP: glap.Config{LearnRounds: -1}},
		{PMs: 10, Ratio: 2, Rounds: 10, Policy: PolicyGLAP},
	} {
		if err := x.Validate(); err != nil {
			t.Fatalf("%s: %v", x.Policy, err)
		}
	}
}

func TestExperimentWorkloadSizeChecked(t *testing.T) {
	set, err := trace.Generate(trace.DefaultGenConfig(10, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	x := smallExperiment(PolicyGRMP)
	x.Workload = set // 10 VMs but PMs*Ratio = 40
	if err := x.Validate(); err == nil {
		t.Fatal("expected workload size mismatch error")
	}
}

func TestRunEveryPolicy(t *testing.T) {
	for _, p := range append([]Policy{PolicyNone}, Policies...) {
		p := p
		t.Run(string(p), func(t *testing.T) {
			x := smallExperiment(p)
			// Exact consensus at 20 PMs takes about 66 aggregation rounds,
			// more than fastGLAP's 20.
			x.GLAP.AggRounds = 100
			res, err := Run(x)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Series.Samples) != 40 {
				t.Fatalf("%d samples", len(res.Series.Samples))
			}
			if err := res.Cluster.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if res.BFDBaseline <= 0 || res.BFDBaseline > 20 {
				t.Fatalf("BFD baseline %d out of range", res.BFDBaseline)
			}
			last, ok := res.Series.Last()
			if !ok {
				t.Fatal("empty series")
			}
			if p == PolicyNone {
				if last.Migrations != 0 {
					t.Fatal("PolicyNone must not migrate")
				}
				if last.ActivePMs != 20 {
					t.Fatal("PolicyNone must not switch off PMs")
				}
			} else {
				if last.ActivePMs >= 20 {
					t.Fatalf("policy %s did not consolidate", p)
				}
			}
			if p == PolicyGLAP {
				if res.Pretrain == nil {
					t.Fatal("GLAP result missing pretrain info")
				}
				if pre := res.Pretrain; pre.ConsensusRound < pre.LearnRounds {
					t.Fatalf("no aggregation round reached identical tables: ConsensusRound %d", pre.ConsensusRound)
				}
			} else if res.Pretrain != nil {
				t.Fatal("non-GLAP policies must not pretrain")
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallExperiment(PolicyGRMP))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallExperiment(PolicyGRMP))
	if err != nil {
		t.Fatal(err)
	}
	la, _ := a.Series.Last()
	lb, _ := b.Series.Last()
	if la != lb {
		t.Fatalf("same seed diverged: %+v vs %+v", la, lb)
	}
	if a.Series.SLAV != b.Series.SLAV {
		t.Fatal("SLAV differs across identical runs")
	}
}

func TestRunSeedsMatter(t *testing.T) {
	x := smallExperiment(PolicyGRMP)
	a, err := Run(x)
	if err != nil {
		t.Fatal(err)
	}
	x.Seed = 99
	b, err := Run(x)
	if err != nil {
		t.Fatal(err)
	}
	la, _ := a.Series.Last()
	lb, _ := b.Series.Last()
	if la == lb {
		t.Log("warning: different seeds produced identical snapshots (possible but unlikely)")
	}
}

func TestPairedPlacementAcrossPolicies(t *testing.T) {
	// Same seed, different policies: initial placement and workload must
	// coincide — verified via the BFD baseline on PolicyNone (no policy
	// disturbs the end state) being equal for repeated PolicyNone runs and
	// via the first-round sample equality between two policies.
	xa := smallExperiment(PolicyGRMP)
	xb := smallExperiment(PolicyEcoCloud)
	a, err := Run(xa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(xb)
	if err != nil {
		t.Fatal(err)
	}
	// Identical workload => identical oracle packing of last-round demand
	// (the oracle ignores actual placement).
	if a.BFDBaseline != b.BFDBaseline {
		t.Fatalf("BFD baselines differ: %d vs %d", a.BFDBaseline, b.BFDBaseline)
	}
}

// TestRunReplicated runs each baseline's replications on two workers. Each
// run builds its own controller, whose round-path scratch concurrent
// replications must never share: under -race a shared buffer is a report,
// and without it a replication would stop matching its sequential twin.
func TestRunReplicated(t *testing.T) {
	for _, p := range []Policy{PolicyGRMP, PolicyEcoCloud, PolicyPABFD} {
		t.Run(string(p), func(t *testing.T) {
			results, err := RunReplicated(smallExperiment(p), 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 3 {
				t.Fatalf("%d results", len(results))
			}
			// Replications must differ (independent workloads).
			l0, _ := results[0].Series.Last()
			l1, _ := results[1].Series.Last()
			if l0 == l1 {
				t.Log("warning: two replications identical (unlikely)")
			}
			sequential, err := RunReplicated(smallExperiment(p), 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			// And be individually valid and the same as run alone.
			for i, r := range results {
				if err := r.Cluster.CheckInvariants(); err != nil {
					t.Fatalf("replication %d: %v", i, err)
				}
				if got, want := serializeSeries(r), serializeSeries(sequential[i]); got != want {
					t.Fatalf("replication %d on two workers differs from its sequential run: %s", i, firstDiff(got, want))
				}
			}
		})
	}
}

// TestRunReplicatedSharesPretrainedTables runs GLAP replications on two
// workers that all decide on one injected Q store, as a warm-started sweep
// does. No read index exists when they start, so the replications race to
// build the store's: under -race an unsynchronised build is a report, and a
// replication must still match its sequential twin.
func TestRunReplicatedSharesPretrainedTables(t *testing.T) {
	x := smallExperiment(PolicyGLAP)
	w, err := workloadFor(x)
	if err != nil {
		t.Fatal(err)
	}
	_, shared, err := pretrain(x, w)
	if err != nil {
		t.Fatal(err)
	}
	x.PretrainedTables = shared
	results, err := RunReplicated(x, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := RunReplicated(x, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if got, want := serializeSeries(r), serializeSeries(sequential[i]); got != want {
			t.Fatalf("replication %d on two workers differs from its sequential run: %s", i, firstDiff(got, want))
		}
	}
}

// TestDecisionCountsAddUp holds the GLAP stacks' decision histograms to the
// cluster: the migrations counted in either bucket are the run's
// migrations, over the synchronous protocol and over lossy messages, and
// each protocol counts its direction verdicts in both buckets.
func TestDecisionCountsAddUp(t *testing.T) {
	for _, p := range []Policy{PolicyGLAP, PolicyGLAPAsync} {
		x := smallExperiment(p)
		x.Net = NetConfig{Latency: 30, DropProb: 0.2}
		res, err := Run(x)
		if err != nil {
			t.Fatal(err)
		}
		d := res.Decisions
		if d == nil || d.Split != x.Rounds/4 {
			t.Fatalf("%s: decisions %+v, want a split at round %d", p, d, x.Rounds/4)
		}
		if got := d.Early.Migrated + d.Late.Migrated; got != res.Cluster.Migrations {
			t.Fatalf("%s: %d migrations counted, the cluster made %d", p, got, res.Cluster.Migrations)
		}
		for _, k := range []glap.DecisionCounts{d.Early, d.Late} {
			if k.None+k.Empty+k.Shed == 0 {
				t.Fatalf("%s: a bucket without direction verdicts: %+v", p, d)
			}
		}
	}
	if res, err := Run(smallExperiment(PolicyGRMP)); err != nil || res.Decisions != nil {
		t.Fatalf("grmp: decisions %v, err %v; want none", res.Decisions, err)
	}
}

// TestDecisionHistogramReproducesProbeA reruns the veto probe that found
// why GLAP keeps more PMs active than BFD (ROADMAP.md, probe A): 500 PMs ×
// ratio 3 × 720 rounds, split at round 180. After the first quarter of the
// day nearly every exchange ends in a π_in veto; capacity vetoes and
// exchanges without an offer are all but absent.
func TestDecisionHistogramReproducesProbeA(t *testing.T) {
	if testing.Short() {
		t.Skip("two 720-round runs at 500 PMs")
	}
	for _, c := range []struct {
		seed                        uint64
		migrations, inVeto, capVeto int64
	}{{1, 1, 61822, 0}, {2, 329, 69211, 2}} {
		res, err := Run(Experiment{PMs: 500, Ratio: 3, Rounds: 720, Seed: c.seed, Policy: PolicyGLAP})
		if err != nil {
			t.Fatal(err)
		}
		late := res.Decisions.Late
		if res.Decisions.Split != 180 || late.Migrated != c.migrations || late.InVeto != c.inVeto ||
			late.CapVeto != c.capVeto || late.NoOffer != 0 || late.MigrateErr != 0 {
			t.Fatalf("seed %d: rounds 180-719 %+v, want %d migrations, %d π_in vetoes, %d capacity vetoes",
				c.seed, late, c.migrations, c.inVeto, c.capVeto)
		}
	}
}

func TestRunReplicatedPropagatesErrors(t *testing.T) {
	bad := smallExperiment(PolicyGLAP)
	bad.GLAP.LearnRounds = -1 // invalid
	if _, err := RunReplicated(bad, 2, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunGridCellAggregates(t *testing.T) {
	g := Grid{Sizes: []int{16}, Ratios: []int{2}, Rounds: 30, Reps: 3, Seed: 5, Policies: []Policy{PolicyGRMP}}
	cells, _, err := RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	cs := cells[Cell{PMs: 16, Ratio: 2, Policy: PolicyGRMP}]
	if cs.Reps != 3 {
		t.Fatalf("reps = %d", cs.Reps)
	}
	if cs.Overloaded.N != 3*30 {
		t.Fatalf("overloaded pooled N = %d, want 90", cs.Overloaded.N)
	}
	if len(cs.CumMigrations) != 30 {
		t.Fatalf("cum series length %d", len(cs.CumMigrations))
	}
	// Cumulative series must be non-decreasing.
	for i := 1; i < len(cs.CumMigrations); i++ {
		if cs.CumMigrations[i] < cs.CumMigrations[i-1]-1e-9 {
			t.Fatal("cumulative migrations decreased")
		}
	}
	if cs.Active.N != 3 || cs.SLAV.N != 3 {
		t.Fatal("per-replication summaries wrong")
	}
}

func TestRunGridOrderAndKeys(t *testing.T) {
	g := Grid{
		Sizes: []int{12}, Ratios: []int{2}, Rounds: 20, Reps: 2, Seed: 3,
		Policies: []Policy{PolicyGRMP, PolicyEcoCloud}, GLAP: fastGLAP(),
	}
	cells, order, err := RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || len(cells) != 2 {
		t.Fatalf("got %d cells", len(order))
	}
	if order[0].Policy != PolicyGRMP || order[1].Policy != PolicyEcoCloud {
		t.Fatalf("order %v", order)
	}
	for _, c := range order {
		if cells[c] == nil {
			t.Fatalf("missing stats for %s", c)
		}
	}
}

// TestRunGridRefusesBadCellFirst: a grid whose last cell is invalid is
// refused, naming the cell, before any run starts.
func TestRunGridRefusesBadCellFirst(t *testing.T) {
	g := Grid{Sizes: []int{16, 1}, Ratios: []int{2}, Rounds: 20, Reps: 2, Policies: []Policy{PolicyGRMP}}.withDefaults()
	runs, _ := gridRuns(g)
	started := countStarts(runs)
	if _, err := sweep(runs, 0, (*stack).outcome); err == nil || !strings.Contains(err.Error(), "cell 1-2/grmp") || started.Load() != 0 {
		t.Fatalf("got %v after %d runs started; want cell 1-2/grmp refused before any", err, started.Load())
	}
	if _, _, err := RunGrid(g); err == nil || !strings.Contains(err.Error(), "cell 1-2/grmp") {
		t.Fatalf("RunGrid: got %v, want cell 1-2/grmp refused", err)
	}
	// An invalid GLAP config is refused before the GRMP cell ahead of it
	// starts, not in GLAP's pre-training.
	g = Grid{Sizes: []int{16}, Ratios: []int{2}, Rounds: 20, Reps: 2, Workers: 1,
		Policies: []Policy{PolicyGRMP, PolicyGLAP}, GLAP: glap.Config{LearnRounds: -1}}.withDefaults()
	runs, _ = gridRuns(g)
	started = countStarts(runs)
	if _, err := sweep(runs, 1, (*stack).outcome); err == nil || !strings.Contains(err.Error(), "cell 16-2/glap") || started.Load() != 0 {
		t.Fatalf("got %v after %d runs started; want cell 16-2/glap refused before any", err, started.Load())
	}
}

// TestNegativeRepsRefused: a negative replication count is an error that
// names it, not a run of nothing reported as all-zero statistics.
func TestNegativeRepsRefused(t *testing.T) {
	if _, _, err := RunGrid(Grid{Sizes: []int{16}, Ratios: []int{2}, Rounds: 20, Reps: -1}); err == nil || !strings.Contains(err.Error(), "Grid.Reps") {
		t.Fatalf("RunGrid: got %v, want Grid.Reps refused", err)
	}
	if _, err := RunRobust(RobustConfig{PMs: 16, Rounds: 20, Reps: -1}); err == nil || !strings.Contains(err.Error(), "RobustConfig.Reps") {
		t.Fatalf("RunRobust: got %v, want RobustConfig.Reps refused", err)
	}
	if _, err := RunReplicated(smallExperiment(PolicyGRMP), -1, 1); err == nil || !strings.Contains(err.Error(), "reps") {
		t.Fatalf("RunReplicated: got %v, want reps refused", err)
	}
}

// countStarts replaces every run's install hook with one that counts the runs
// that start.
func countStarts(runs []sweepRun) *atomic.Int32 {
	var n atomic.Int32
	for i := range runs {
		runs[i].install = func(*stack) func() error { n.Add(1); return func() error { return nil } }
	}
	return &n
}

func TestCellString(t *testing.T) {
	c := Cell{PMs: 500, Ratio: 3, Policy: PolicyGLAP}
	if c.String() != "500-3/glap" {
		t.Fatalf("Cell.String() = %q", c.String())
	}
}

func TestRunConvergenceShape(t *testing.T) {
	res, err := RunConvergence(16, []int{2, 3}, fastGLAP(), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Ratio != 2 || res[1].Ratio != 3 {
		t.Fatalf("ratios wrong: %+v", res)
	}
	for _, r := range res {
		if len(r.Cosine) == 0 || len(r.Cosine) != len(r.Rounds) {
			t.Fatal("series malformed")
		}
		if r.AggStart != 30 {
			t.Fatalf("AggStart = %d", r.AggStart)
		}
		final := r.Cosine[len(r.Cosine)-1]
		if final < 0.99 {
			t.Fatalf("ratio %d did not converge: %g", r.Ratio, final)
		}
	}
}

// TestRunConvergenceValidatesFirst: an invalid experiment is refused before
// any ratio builds its workload or pre-trains; unrefused, a single PM reads
// as converged, a cosine of 1 on every round. The allocation count
// witnesses that nothing ran: building even ratio 2's workload allocates
// per VM.
func TestRunConvergenceValidatesFirst(t *testing.T) {
	bad := fastGLAP()
	bad.LearnRounds = -1
	for _, tc := range []struct {
		pms    int
		ratios []int
		cfg    glap.Config
		want   string
	}{
		{1, []int{2}, fastGLAP(), "PMs must be > 1"},
		{16, []int{2}, bad, "LearnRounds"},
		{16, []int{2, 0}, fastGLAP(), "ratio 0"},
	} {
		var res []*ConvergenceResult
		var err error
		allocs := testing.AllocsPerRun(1, func() { res, err = RunConvergence(tc.pms, tc.ratios, tc.cfg, 3, 10) })
		if err == nil || !strings.Contains(err.Error(), tc.want) || res != nil || allocs > 20 {
			t.Fatalf("%d PMs, ratios %v: got %v, %v after %.0f allocations; want an error naming %q before any run", tc.pms, tc.ratios, res, err, allocs, tc.want)
		}
	}
}

func TestGLAPBeatsGRMPOnOverloads(t *testing.T) {
	// The paper's headline claim, at smoke-test scale: pooled across a few
	// replications, GLAP overloads fewer PMs than GRMP.
	if testing.Short() {
		t.Skip("skipping comparative run in -short mode")
	}
	g := Grid{Sizes: []int{30}, Ratios: []int{3}, Rounds: 60, Reps: 3, Seed: 11, GLAP: fastGLAP(), Policies: []Policy{PolicyGLAP, PolicyGRMP}}
	cells, _, err := RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	glapStats, grmpStats := cells[Cell{PMs: 30, Ratio: 3, Policy: PolicyGLAP}], cells[Cell{PMs: 30, Ratio: 3, Policy: PolicyGRMP}]
	if glapStats.Overloaded.Mean >= grmpStats.Overloaded.Mean {
		t.Fatalf("GLAP mean overloads %.2f !< GRMP %.2f",
			glapStats.Overloaded.Mean, grmpStats.Overloaded.Mean)
	}
	if glapStats.SLAV.Median >= grmpStats.SLAV.Median {
		t.Fatalf("GLAP SLAV %.3g !< GRMP %.3g",
			glapStats.SLAV.Median, grmpStats.SLAV.Median)
	}
}

// TestRunHostileExperiments pins how the facade treats configurations no
// sane caller writes: none may panic or hang (either fails the test binary).
// What Validate rules out must be refused; the rest may run to completion or
// be refused further down (ratio 50 overloads every PM, so GLAP's
// pre-training learns nothing and says so).
func TestRunHostileExperiments(t *testing.T) {
	async := func(x *Experiment) { x.Policy = PolicyGLAPAsync }
	cases := []struct {
		name    string
		mut     func(x *Experiment)
		mustErr bool
	}{
		{"zero PMs", func(x *Experiment) { x.PMs = 0 }, true},
		{"negative PMs", func(x *Experiment) { x.PMs = -5 }, true},
		{"zero ratio", func(x *Experiment) { x.Ratio = 0 }, true},
		{"negative ratio", func(x *Experiment) { x.Ratio = -1 }, true},
		{"zero rounds", func(x *Experiment) { x.Rounds = 0 }, true},
		{"negative rounds", func(x *Experiment) { x.Rounds = -3 }, true},
		{"drop prob below 0", func(x *Experiment) { async(x); x.Net.DropProb = -0.1 }, true},
		{"drop prob above 1", func(x *Experiment) { async(x); x.Net.DropProb = 1.5 }, true},
		{"churn below 0", func(x *Experiment) { x.VMChurn = -0.5 }, true},
		{"churn above 1", func(x *Experiment) { x.VMChurn = 1.5 }, true},
		// NaN fails both range comparisons; the run would silently go
		// lossless or churn-free.
		{"drop prob NaN", func(x *Experiment) { async(x); x.Net.DropProb = math.NaN() }, true},
		{"drop prob +Inf", func(x *Experiment) { async(x); x.Net.DropProb = math.Inf(1) }, true},
		{"drop prob -Inf", func(x *Experiment) { async(x); x.Net.DropProb = math.Inf(-1) }, true},
		{"churn NaN", func(x *Experiment) { x.VMChurn = math.NaN() }, true},
		{"churn +Inf", func(x *Experiment) { x.VMChurn = math.Inf(1) }, true},
		{"churn -Inf", func(x *Experiment) { x.VMChurn = math.Inf(-1) }, true},
		{"negative latency", func(x *Experiment) { async(x); x.Net.Latency = -1 }, true},
		{"negative rack size", func(x *Experiment) { x.RackSize = -1 }, true},
		{"unknown policy", func(x *Experiment) { x.Policy = "bogus" }, true},
		{"shuffle longer than view", func(x *Experiment) { x.CyclonShuffleLen = 25 }, false},
		{"negative workers", func(x *Experiment) { x.Workers = -9 }, false},
		{"ratio 50", func(x *Experiment) { x.Ratio = 50 }, false},
		// A Q store without one of its tables used to panic in round 0's
		// first admission check.
		{"pre-trained tables without Out", func(x *Experiment) {
			x.PretrainedTables = glap.NewNodeTables()
			x.PretrainedTables.Out = nil
		}, true},
		{"pre-trained tables without In", func(x *Experiment) {
			async(x)
			x.PretrainedTables = glap.NewNodeTables()
			x.PretrainedTables.In = nil
		}, true},
		// NaN and ±Inf used to pass glap.Config.Validate and fill the
		// pre-trained tables with NaN cells.
		{"GLAP in-reward NaN", func(x *Experiment) {
			x.GLAP.RewardIn = glap.DefaultRewardIn
			x.GLAP.RewardIn[2] = math.NaN()
		}, true},
	}
	for _, tc := range cases {
		x := Experiment{
			PMs: 10, Ratio: 2, Rounds: 5, Seed: 3, Policy: PolicyGLAP,
			GLAP: glap.Config{LearnRounds: 5, AggRounds: 3},
		}
		tc.mut(&x)
		if _, err := Run(x); tc.mustErr && err == nil {
			t.Errorf("%s: Run accepted a configuration Validate rules out", tc.name)
		}
	}
}
