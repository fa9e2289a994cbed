package glap

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

// constCluster builds a cluster of pms machines whose VMs all demand the
// given constant fractions, placed deterministically.
func constCluster(t *testing.T, pms, vms int, cpu, mem float64) *dc.Cluster {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("vm,round,cpu,mem\n")
	for vm := 0; vm < vms; vm++ {
		for r := 0; r < 20; r++ {
			fmt.Fprintf(&b, "%d,%d,%g,%g\n", vm, r, cpu, mem)
		}
	}
	set, err := trace.LoadCSV(&b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dc.New(dc.Config{PMs: pms, Workload: set})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(13)
	c.PlaceRandom(rng.Intn)
	return c
}

// genCluster builds pms machines hosting the vms VMs of a rounds-round trace
// generated from seed, placed at random from place.
func genCluster(tb testing.TB, pms, vms, rounds int, seed, place uint64) *dc.Cluster {
	tb.Helper()
	set, err := trace.Generate(trace.DefaultGenConfig(vms, rounds, seed))
	if err != nil {
		tb.Fatal(err)
	}
	c, err := dc.New(dc.Config{PMs: pms, Workload: set})
	if err != nil {
		tb.Fatal(err)
	}
	c.PlaceRandom(sim.NewRNG(place).Intn)
	return c
}

// pretrainShared pre-trains cl under cfg from seed and collapses the result
// into the one shared Q store deployments consolidate with.
func pretrainShared(tb testing.TB, cfg Config, cl *dc.Cluster, seed uint64) *NodeTables {
	tb.Helper()
	res, err := Pretrain(cfg, cl, seed, PretrainOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	shared, err := SharedTables(res)
	if err != nil {
		tb.Fatal(err)
	}
	return shared
}

// syncStack builds Algorithm 3 over the one Q store tables on cl, on an
// engine seeded from seed, beside a Cyclon overlay of the given view and
// shuffle lengths.
func syncStack(tb testing.TB, cl *dc.Cluster, tables *NodeTables, seed uint64, view, shuffle int) (*sim.Engine, *ConsolidateProtocol) {
	tb.Helper()
	e := sim.NewEngine(len(cl.PMs), seed)
	b, err := policy.Bind(e, cl)
	if err != nil {
		tb.Fatal(err)
	}
	e.Register(cyclon.New(view, shuffle))
	cons := &ConsolidateProtocol{B: b, Tables: func(*sim.Engine, *sim.Node) *NodeTables { return tables }}
	e.Register(cons)
	return e, cons
}

// asyncStack is syncStack's message-carried twin: Algorithm 3 over a
// transport of constant latency that loses drop of the messages, beside a
// Cyclon overlay unless view is 0.
func asyncStack(tb testing.TB, cl *dc.Cluster, tables *NodeTables, seed uint64, view, shuffle int, latency int64, drop float64) (*sim.Engine, *AsyncConsolidateProtocol) {
	tb.Helper()
	e := sim.NewEngine(len(cl.PMs), seed)
	b, err := policy.Bind(e, cl)
	if err != nil {
		tb.Fatal(err)
	}
	if view > 0 {
		e.Register(cyclon.New(view, shuffle))
	}
	tr := sim.NewTransport(e, sim.ConstantLatency(latency))
	tr.DropProb = drop
	cons := &AsyncConsolidateProtocol{
		B: b, Tr: tr, Tables: func(*sim.Engine, *sim.Node) *NodeTables { return tables },
		OfferTimeout: 2 * e.RoundPeriod,
	}
	tr.Handle(cons)
	e.Register(cons)
	return e, cons
}

func TestDuplicateToCover(t *testing.T) {
	cap := dc.Vec{2660, 4096}
	ps := []profile{
		{avg: dc.Vec{0.5, 0.5}, cur: dc.Vec{0.5, 0.5}, cap: dc.Vec{500, 613}},
	}
	out := duplicateToCover(ps, cap, 1.5)
	var sum float64
	for _, p := range out {
		sum += p.avg[dc.CPU] * p.cap[dc.CPU]
	}
	if sum < 1.5*2660 {
		t.Fatalf("aggregate %g below target", sum)
	}
	// Zero-demand profiles do not loop forever.
	zero := []profile{{cap: dc.Vec{500, 613}}}
	if got := duplicateToCover(zero, cap, 1.5); len(got) != 1 {
		t.Fatalf("zero-demand duplication grew to %d", len(got))
	}
	// Bounded blowup.
	tiny := []profile{{avg: dc.Vec{0.0001, 0}, cur: dc.Vec{0.0001, 0}, cap: dc.Vec{500, 613}}}
	if got := duplicateToCover(tiny, cap, 5); len(got) > 64 {
		t.Fatalf("duplication unbounded: %d", len(got))
	}
}

func TestLearningBuildsTables(t *testing.T) {
	trained, cells := 0, 0
	for _, st := range learnTables(t, genCluster(t, 20, 60, 50, 3, 3), DefaultConfig(), 3, 8, 4, 30, false) {
		if st.Trained {
			trained++
			cells += st.Out.Len() + st.In.Len()
		}
	}
	if trained == 0 {
		t.Fatal("no node trained")
	}
	if cells == 0 {
		t.Fatal("no Q-cells produced")
	}
}

func TestLearningRespectsThreshold(t *testing.T) {
	// Every PM is at ~94% CPU: above the 50% learning threshold, so no
	// node may train.
	cl := constCluster(t, 2, 10, 1.0, 0.2) // 5 VMs/PM at 100% = 2500/2660
	for _, st := range learnTables(t, cl, DefaultConfig(), 5, 4, 2, 5, false) {
		if st.Trained {
			t.Fatal("overloaded PM must not run the learning phase")
		}
	}
}

func TestLearningInRewardsTeachRejection(t *testing.T) {
	// With every VM at a constant high demand, accepting a VM into an
	// almost-full virtual PM lands in Overload during training, so the
	// learned in-table must contain strongly negative cells.
	cl := constCluster(t, 4, 8, 0.9, 0.3)
	// 2 VMs/PM at 0.9 → avg util 0.338: below the learning threshold.
	negative := 0
	for _, st := range learnTables(t, cl, DefaultConfig(), 7, 4, 2, 40, false) {
		for _, k := range st.In.Keys() {
			if st.In.Get(k.S, k.A) < 0 {
				negative++
			}
		}
	}
	if negative == 0 {
		t.Fatal("no negative in-cells learned despite guaranteed overloads")
	}
}

func TestPretrainConverges(t *testing.T) {
	cl := genCluster(t, 24, 72, 120, 11, 11)
	cfg := Config{LearnRounds: 40, AggRounds: 40}
	res, err := Pretrain(cfg, cl, 11, PretrainOptions{MeasureEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Convergence) == 0 || len(res.Convergence) != len(res.ConvergenceRound) {
		t.Fatal("convergence series malformed")
	}
	if got := res.Convergence[len(res.Convergence)-1]; got < 0.999 {
		t.Fatalf("final similarity %g, want ~1", got)
	}
	// All nodes hold the same cells with near-identical values after
	// aggregation (push-pull averaging converges exponentially, so exact
	// float equality is not guaranteed).
	var ref *NodeTables
	for _, tb := range res.Tables {
		if ref == nil {
			ref = tb
			continue
		}
		if ref.Out.Len() != tb.Out.Len() || ref.In.Len() != tb.In.Len() {
			t.Fatal("key sets differ after aggregation phase")
		}
		for _, k := range ref.Out.Keys() {
			if !tb.Out.Has(k.S, k.A) {
				t.Fatal("out key missing on some node")
			}
		}
		for _, k := range ref.In.Keys() {
			if !tb.In.Has(k.S, k.A) {
				t.Fatal("in key missing on some node")
			}
		}
	}
	// Measurement rounds must be increasing.
	for i := 1; i < len(res.ConvergenceRound); i++ {
		if res.ConvergenceRound[i] <= res.ConvergenceRound[i-1] {
			t.Fatal("non-increasing measurement rounds")
		}
	}
}

func TestPretrainValidatesConfig(t *testing.T) {
	cl := genCluster(t, 4, 8, 10, 1, 1)
	bad := Config{LearnRounds: -1}
	if _, err := Pretrain(bad, cl, 1, PretrainOptions{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestSharedTables(t *testing.T) {
	empty := &PretrainResult{Tables: []*NodeTables{
		{Out: qlearn.New(0.5, 0.8), In: qlearn.New(0.5, 0.8)},
	}}
	if _, err := SharedTables(empty); err == nil {
		t.Fatal("expected error for empty tables")
	}
	full := NewNodeTables()
	full.Out.Set(1, 1, 5)
	res := &PretrainResult{Tables: []*NodeTables{empty.Tables[0], full, nil}}
	got, err := SharedTables(res)
	if err != nil {
		t.Fatal(err)
	}
	if got != full {
		t.Fatal("should pick the largest table")
	}
}

// TestIOVecLayout pins the dense φ^io layout: φ^out cells fill the first
// half at s*DenseSpan+a and φ^in cells the second, so the same cell of the
// two tables never collides, and absent cells read 0.
func TestIOVecLayout(t *testing.T) {
	tb := NewNodeTables()
	tb.Out.Set(1, 1, 5)
	tb.In.Set(1, 1, -3)
	tb.In.Set(qlearn.DenseSpan-1, qlearn.DenseSpan-1, 7)
	const half = qlearn.DenseSpan * qlearn.DenseSpan
	vec := tb.IOVec()
	want := map[int]float64{
		1*qlearn.DenseSpan + 1:        5,
		half + 1*qlearn.DenseSpan + 1: -3,
		2*half - 1:                    7,
	}
	if len(vec) != IOVecLen || IOVecLen != 2*half {
		t.Fatalf("len %d, IOVecLen %d, want %d", len(vec), IOVecLen, 2*half)
	}
	for i, v := range vec {
		if v != want[i] {
			t.Fatalf("vec[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestNodeTablesClone(t *testing.T) {
	tb := &NodeTables{Out: qlearn.New(0.5, 0.8), In: qlearn.New(0.5, 0.8), Trained: true}
	tb.Out.Set(1, 1, 5)
	c := tb.Clone()
	c.Out.Set(1, 1, 99)
	if tb.Out.Get(1, 1) == 99 {
		t.Fatal("clone shares table storage")
	}
	if !c.Trained {
		t.Fatal("clone lost Trained flag")
	}
}

// fixedTables builds a shared Q store with hand-written values.
func fixedTables(outVals, inVals map[qlearn.Key]float64) *NodeTables {
	tb := &NodeTables{Out: qlearn.New(0.5, 0.8), In: qlearn.New(0.5, 0.8), Trained: true}
	for k, v := range outVals {
		tb.Out.Set(k.S, k.A, v)
	}
	for k, v := range inVals {
		tb.In.Set(k.S, k.A, v)
	}
	return tb
}

func TestConsolidationEmptiesAndSwitchesOff(t *testing.T) {
	// Plenty of headroom and a permissive in-table: the cluster must
	// consolidate and switch off PMs.
	cl := constCluster(t, 10, 10, 0.2, 0.2)
	tables := fixedTables(nil, nil) // all-zero: everything accepted
	tables.Out.Set(0, 0, 0)         // non-empty so SharedTables-style checks pass
	e, _ := syncStack(t, cl, tables, 21, 6, 3)
	e.RunRounds(30)
	if cl.ActivePMs() >= 10 {
		t.Fatalf("no consolidation happened: %d active", cl.ActivePMs())
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every VM still placed on a powered PM.
	for _, vm := range cl.VMs {
		if vm.Host() < 0 || !cl.PMs[vm.Host()].On() {
			t.Fatalf("VM %d lost its host", vm.ID)
		}
	}
}

func TestConsolidationRejectsOnNegativeQ(t *testing.T) {
	// An in-table that rejects everything must block all migrations.
	cl := constCluster(t, 6, 12, 0.3, 0.3)
	inVals := map[qlearn.Key]float64{}
	for s := 0; s < 81; s++ {
		for a := 0; a < 81; a++ {
			inVals[qlearn.Key{S: qlearn.State(s), A: qlearn.Action(a)}] = -1
		}
	}
	tables := fixedTables(nil, inVals)
	e, _ := syncStack(t, cl, tables, 23, 6, 3)
	e.RunRounds(10)
	if cl.Migrations != 0 {
		t.Fatalf("%d migrations despite universal rejection", cl.Migrations)
	}
	if cl.ActivePMs() != 6 {
		t.Fatal("PMs switched off without migrating")
	}
}

func TestConsolidationShedsOverload(t *testing.T) {
	// One PM is overloaded (6 VMs at 100% CPU = 3000 > 2660), the rest of
	// the cluster is empty. With permissive tables the overloaded PM must
	// shed VMs and exit the overloaded state.
	var b bytes.Buffer
	b.WriteString("vm,round,cpu,mem\n")
	for vm := 0; vm < 6; vm++ {
		for r := 0; r < 10; r++ {
			fmt.Fprintf(&b, "%d,%d,1.0,0.2\n", vm, r)
		}
	}
	set, err := trace.LoadCSV(&b)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dc.New(dc.Config{PMs: 3, Workload: set})
	if err != nil {
		t.Fatal(err)
	}
	// Stuff all 6 VMs onto PM 0: place normally, then migrate them in
	// (migration is admission-free; admission is the protocol's job).
	rng := sim.NewRNG(1)
	cl.PlaceRandom(rng.Intn)
	for _, vm := range cl.VMs {
		if vm.Host() != 0 {
			if err := cl.Migrate(vm, cl.PMs[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl.Migrations = 0 // reset setup migrations
	if !cl.Overloaded(cl.PMs[0]) {
		t.Fatal("setup: PM 0 should be overloaded")
	}
	tables := fixedTables(nil, nil)
	e, _ := syncStack(t, cl, tables, 29, 6, 3)
	e.RunRounds(10)
	if cl.Overloaded(cl.PMs[0]) {
		t.Fatalf("PM 0 still overloaded after 10 rounds (util %v)", cl.CurUtil(cl.PMs[0]))
	}
	if cl.Migrations == 0 {
		t.Fatal("no migrations recorded")
	}
}

func TestConsolidationCapacityGuard(t *testing.T) {
	// Destination lacks capacity: migration must not happen even with
	// permissive tables. Two PMs, each packed to 94% CPU.
	cl := constCluster(t, 2, 10, 1.0, 0.2) // 5 VMs x 500 = 2500/2660 each
	tables := fixedTables(nil, nil)
	e, _ := syncStack(t, cl, tables, 31, 6, 3)
	e.RunRounds(5)
	if cl.Migrations != 0 {
		t.Fatalf("%d migrations into full PMs", cl.Migrations)
	}
}

func TestPMStateHelpers(t *testing.T) {
	cl := constCluster(t, 1, 4, 0.5, 0.25)
	pm := cl.PMs[0]
	// 4 VMs * 0.5 * 500 / 2660 = 0.376 CPU (Medium), 4*0.25*613/4096 =
	// 0.1496 Mem (Low).
	wantCPU := LevelOf(4 * 0.5 * 500 / 2660)
	wantMem := LevelOf(4 * 0.25 * 613 / 4096)
	got := LevelsOfState(PMStateCur(cl, pm))
	if got[dc.CPU] != wantCPU || got[dc.Mem] != wantMem {
		t.Fatalf("cur state %s", got)
	}
	if PMStateAvg(cl, pm) != PMStateCur(cl, pm) {
		t.Fatal("avg and cur states should match for constant demand")
	}
	vm := cl.VMs[0]
	if a := LevelsOfState(qlearn.State(VMAction(vm))); a[dc.CPU] != High || a[dc.Mem] != Medium {
		t.Fatalf("VM action %s", a)
	}
}
