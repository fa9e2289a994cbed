package glap

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

// fullRun is what a pre-training without the consensus rule leaves: every
// node's tables, the convergence samples under each measurement period, and
// the first aggregation round at whose end an independent cell-by-cell check
// found every node's tables identical (-1 if none did).
type fullRun struct {
	tables    []*NodeTables
	sharing   [2][]int // sharingOf φ^out and φ^in
	conv      map[int][]float64
	rounds    map[int][]int
	consensus int
}

// fullPretrain is Pretrain assembled from its protocols the way it ran before
// Algorithm 2 ended at consensus: policy.Bind advances the cluster in every
// round, every aggregation round merges, and every measured round samples the
// tables. Each period in every gets its own sampler, each on its own copy of
// Pretrain's measurement stream, so one run yields the samples of several
// MeasureEvery settings.
func fullPretrain(t *testing.T, cfg Config, cl *dc.Cluster, seed uint64, every ...int) *fullRun {
	t.Helper()
	cfg = cfg.withDefaults()
	e := sim.NewEngine(len(cl.PMs), seed)
	e.Workers = 1
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	e.Register(cyclon.New(0, 0))
	e.RegisterWindow(&LearnProtocol{Cfg: cfg, B: b}, 1, 0, cfg.LearnRounds-1)
	e.RegisterWindow(&AggProtocol{}, 1, cfg.LearnRounds, cfg.LearnRounds+cfg.AggRounds-1)
	run := &fullRun{conv: map[int][]float64{}, rounds: map[int][]int{}, consensus: -1}
	for _, k := range every {
		probe, rng := ioProbe(), e.RNG().Derive(0x3ea5)
		e.Observe(func(e *sim.Engine, round int) {
			if round%k != 0 {
				return
			}
			v := probe.meanPairwiseCosineDense(e, measurePairs, rng)
			run.conv[k] = append(run.conv[k], v)
			run.rounds[k] = append(run.rounds[k], round)
		})
	}
	e.Observe(func(e *sim.Engine, round int) {
		if round < cfg.LearnRounds || run.consensus >= 0 {
			return
		}
		t0 := TablesOf(e, e.Node(0))
		for _, n := range e.Nodes()[1:] {
			tn := TablesOf(e, n)
			if !sameCells(t0.Out, tn.Out) || !sameCells(t0.In, tn.In) {
				return
			}
		}
		run.consensus = round
	})
	e.RunRounds(cfg.LearnRounds + cfg.AggRounds)
	for _, n := range e.Nodes() {
		run.tables = append(run.tables, TablesOf(e, n))
	}
	outs, ins := directions(run.tables)
	run.sharing = [2][]int{sharingOf(outs), sharingOf(ins)}
	return run
}

// sameCells is qlearn.Identical for two tables, by definition and through
// the public accessors: the same cells, and in every cell the same non-NaN
// value bits.
func sameCells(a, b *qlearn.Table) bool {
	ak, bk := a.Keys(), b.Keys()
	if !slices.Equal(ak, bk) {
		return false
	}
	// Each table's values laid out densely: one pass per table, where a Get
	// per cell would search the cell array.
	buf := densePool.Get().(*[2][]float64)
	defer densePool.Put(buf)
	x, y := a.FillDense(buf[0]), b.FillDense(buf[1])
	for _, k := range ak {
		i := int(k.S)*qlearn.DenseSpan + int(k.A)
		if x[i] != x[i] || math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

var densePool = sync.Pool{New: func() any {
	const n = qlearn.DenseSpan * qlearn.DenseSpan
	return &[2][]float64{make([]float64, n), make([]float64, n)}
}}

// requireSameStores fails unless got and want hold, store for store, the
// same Q stores bit for bit: the same Trained flag and, in φ^out and φ^in,
// the same Alpha and Gamma bits and the same cells by sameCells. It is
// stricter than qlearn.Equal, which reads +0 and −0 as one value.
func requireSameStores(tb testing.TB, label string, got, want []*NodeTables) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d stores, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Trained != w.Trained {
			tb.Fatalf("%s: store %d Trained %v, want %v", label, i, g.Trained, w.Trained)
		}
		for dir, pair := range [2][2]*qlearn.Table{{g.Out, w.Out}, {g.In, w.In}} {
			a, b := pair[0], pair[1]
			if math.Float64bits(a.Alpha) != math.Float64bits(b.Alpha) || math.Float64bits(a.Gamma) != math.Float64bits(b.Gamma) {
				tb.Fatalf("%s: store %d direction %d parameters %g/%g, want %g/%g", label, i, dir, a.Alpha, a.Gamma, b.Alpha, b.Gamma)
			}
			if !sameCells(a, b) {
				tb.Fatalf("%s: store %d direction %d differs (%d cells, want %d)", label, i, dir, a.Len(), b.Len())
			}
		}
	}
}

// sharingOf labels every table with the first table that shares its backing
// (tables without one share the absent backing).
func sharingOf(ts []*qlearn.Table) []int {
	backings := func(ts ...*qlearn.Table) int { n, _, _, _ := qlearn.Footprint(ts); return n }
	own := make([]int, len(ts))
	for i, tb := range ts {
		own[i] = backings(tb)
	}
	lab := make([]int, len(ts))
	for i := range ts {
		lab[i] = i
		for j := 0; j < i; j++ {
			if own[i] == own[j] && backings(ts[j], ts[i]) == own[i] {
				lab[i] = j
				break
			}
		}
	}
	return lab
}

func directions(ts []*NodeTables) (outs, ins []*qlearn.Table) {
	for _, t := range ts {
		outs, ins = append(outs, t.Out), append(ins, t.In)
	}
	return outs, ins
}

// checkAgainstFull requires res to be what the full-length run left: the same
// consensus round, every node's tables bit for bit and shared the same way,
// the same SharedTables checkpoint bytes, and the same convergence samples.
func checkAgainstFull(t *testing.T, label string, res *PretrainResult, full *fullRun, every int) {
	t.Helper()
	if res.ConsensusRound != full.consensus {
		t.Fatalf("%s: ConsensusRound %d, the full run's tables were first identical at %d", label, res.ConsensusRound, full.consensus)
	}
	if len(res.Tables) != len(full.tables) {
		t.Fatalf("%s: %d nodes, want %d", label, len(res.Tables), len(full.tables))
	}
	// Sharing first: tables that share a backing in both runs hold the same
	// cells, so the cells need comparing once per shared backing.
	outs, ins := directions(res.Tables)
	fouts, fins := directions(full.tables)
	for dir, pair := range [2][2][]*qlearn.Table{{outs, fouts}, {ins, fins}} {
		ts, fts := pair[0], pair[1]
		got, want := sharingOf(ts), full.sharing[dir]
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: direction %d, node %d shares its backing with node %d, in the full run with %d", label, dir, i, got[i], want[i])
			}
			if got[i] == i && !sameCells(ts[i], fts[i]) {
				t.Fatalf("%s: direction %d, node %d's table differs from the full run's", label, dir, i)
			}
		}
	}
	for i, tb := range res.Tables {
		if tb.Trained != full.tables[i].Trained {
			t.Fatalf("%s: node %d Trained %v, in the full run %v", label, i, tb.Trained, full.tables[i].Trained)
		}
	}
	save := func(ts []*NodeTables) ([]byte, error) {
		shared, err := SharedTables(&PretrainResult{Tables: ts})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = SaveTables(&buf, shared)
		return buf.Bytes(), err
	}
	gotBytes, gotErr := save(res.Tables)
	wantBytes, wantErr := save(full.tables)
	if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("%s: shared-table checkpoint differs (err %v, full run %v)", label, gotErr, wantErr)
	}
	want, wantRounds := full.conv[every], full.rounds[every]
	if len(res.Convergence) != len(want) || len(res.ConvergenceRound) != len(wantRounds) {
		t.Fatalf("%s: %d samples at %d rounds, the full run %d at %d", label, len(res.Convergence), len(res.ConvergenceRound), len(want), len(wantRounds))
	}
	for i := range want {
		if math.Float64bits(res.Convergence[i]) != math.Float64bits(want[i]) || res.ConvergenceRound[i] != wantRounds[i] {
			t.Fatalf("%s: sample %d is %v at round %d, the full run's %v at round %d",
				label, i, res.Convergence[i], res.ConvergenceRound[i], want[i], wantRounds[i])
		}
	}
}

// TestPretrainConsensusMatchesFullRun is the differential behind the
// consensus rule: Pretrain, which freezes the cluster after the learning
// phase and only adopts backings once the tables are identical, against the
// full-length assembly, on every combination of seed, size, worker count and
// measurement period. The shapes reach consensus with rounds to
// spare, so the rounds after it are what is being compared. -short (the
// race-detector steps) keeps three of the twelve size × seed groups.
func TestPretrainConsensusMatchesFullRun(t *testing.T) {
	t.Parallel()
	var settledEarly [2]atomic.Int32
	sizes, seeds := []int{17, 120}, []uint64{6, 6}
	if testing.Short() { // CI's race-detector steps
		seeds = []uint64{2, 1}
	}
	t.Run("runs", func(t *testing.T) {
		for si, pms := range sizes {
			for seed := uint64(1); seed <= seeds[si]; seed++ {
				t.Run(fmt.Sprintf("pms=%d/seed=%d", pms, seed), func(t *testing.T) {
					t.Parallel()
					cfg := Config{LearnRounds: 8, AggRounds: 90}
					full := fullPretrain(t, cfg, genCluster(t, pms, 3*pms, 120, seed, seed), seed, 1, 5)
					if full.consensus >= 0 && full.consensus < cfg.LearnRounds+cfg.AggRounds-1 {
						settledEarly[si].Add(1)
					}
					for _, workers := range []int{1, 2, 8} {
						for _, every := range []int{0, 1, 5} {
							res, err := Pretrain(cfg, genCluster(t, pms, 3*pms, 120, seed, seed), seed,
								PretrainOptions{Workers: workers, MeasureEvery: every})
							if err != nil {
								t.Fatal(err)
							}
							checkAgainstFull(t, fmt.Sprintf("workers=%d every=%d", workers, every), res, full, every)
						}
					}
				})
			}
		}
	})
	for si, pms := range sizes {
		if n, runs := settledEarly[si].Load(), int32(seeds[si]); 4*n < 3*runs {
			t.Errorf("%d PMs: only %d of %d runs reached consensus before their last round; the shape no longer tests the rounds after it", pms, n, runs)
		}
	}
}

// TestPretrainConsensusEdgeCases covers the runs the rule must leave exactly
// as they were: no aggregation phase at all, a cluster in which no PM trains
// (every table empty, identical from the first aggregation round), and an
// aggregation phase too short to reach consensus. In the second, every VM
// demands its full CPU and allocation packs five onto each of the 17 PMs
// before the rest spill over, so every PM's average CPU stays above the
// learning gate from the first round.
func TestPretrainConsensusEdgeCases(t *testing.T) {
	cases := []struct {
		name       string
		cfg        Config
		pms, ratio int
		saturated  bool
		consensus  int // the round the full run must first agree at, or -1
	}{
		{"no aggregation", Config{LearnRounds: 12, AggRounds: -1}, 40, 3, false, -1},
		{"nothing trains", Config{LearnRounds: 12, AggRounds: 10}, 17, 8, true, 12},
		{"too short to agree", Config{LearnRounds: 12, AggRounds: 3}, 120, 3, false, -1},
	}
	for _, c := range cases {
		cluster := func() *dc.Cluster {
			if c.saturated {
				return saturatedCluster(t, c.pms, c.ratio*c.pms, 60)
			}
			return genCluster(t, c.pms, c.ratio*c.pms, 60, 4, 4)
		}
		full := fullPretrain(t, c.cfg, cluster(), 4, 1)
		if full.consensus != c.consensus {
			t.Fatalf("%s: the full run agrees from round %d, the case needs %d", c.name, full.consensus, c.consensus)
		}
		for _, every := range []int{0, 1} {
			label := fmt.Sprintf("%s every=%d", c.name, every)
			res, err := Pretrain(c.cfg, cluster(), 4, PretrainOptions{MeasureEvery: every})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstFull(t, label, res, full, every)
			for i, tb := range res.Tables {
				if c.saturated && tb.Out.Len()+tb.In.Len() != 0 {
					t.Fatalf("%s: node %d holds Q-values", label, i)
				}
			}
		}
	}
}

// saturatedCluster is genCluster's placement over a workload in which every
// VM demands its full CPU and a fifth of its memory in every round.
func saturatedCluster(t *testing.T, pms, vms, rounds int) *dc.Cluster {
	t.Helper()
	var b bytes.Buffer
	for vm := 0; vm < vms; vm++ {
		for r := 0; r < rounds; r++ {
			fmt.Fprintf(&b, "%d,%d,1,0.2\n", vm, r)
		}
	}
	set, err := trace.LoadCSV(&b)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dc.New(dc.Config{PMs: pms, Workload: set})
	if err != nil {
		t.Fatal(err)
	}
	cl.PlaceRandom(sim.NewRNG(4).Intn)
	return cl
}
