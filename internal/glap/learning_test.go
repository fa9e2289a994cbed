package glap

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

// learnTables runs Algorithm 1 alone on cl for rounds rounds — the
// production kernel or, with reference set, the test-only protocol that runs
// the pre-fusion kernel — beside a Cyclon overlay of the given view and
// shuffle lengths, on an engine seeded from seed, and returns every node's
// tables.
func learnTables(tb testing.TB, cl *dc.Cluster, cfg Config, seed uint64, view, shuffle, rounds int, reference bool) []*NodeTables {
	tb.Helper()
	e := sim.NewEngine(len(cl.PMs), seed)
	b, err := policy.Bind(e, cl)
	if err != nil {
		tb.Fatal(err)
	}
	e.Register(cyclon.New(view, shuffle))
	var learn sim.Protocol = &LearnProtocol{Cfg: cfg, B: b}
	if reference {
		learn = &refLearnProtocol{LearnProtocol{Cfg: cfg, B: b}}
	}
	e.Register(learn)
	e.RunRounds(rounds)
	out := make([]*NodeTables, e.N())
	for i, n := range e.Nodes() {
		out[i] = TablesOf(e, n)
	}
	return out
}

// learnCase is one corpus of the kernel differential: a cluster, a learning
// configuration and a run length.
type learnCase struct {
	pms, vms, rounds int
	seed             uint64
	cfg              Config
	// specFor, when set, assigns per-PM hardware (a heterogeneous fleet).
	specFor func(pm int) dc.PMSpec
}

// twoGenerations alternates the two PM models of the heterogeneous fleet.
func twoGenerations(pm int) dc.PMSpec {
	if pm%2 == 1 {
		return dc.HPProLiantML110G4
	}
	return dc.HPProLiantML110G5
}

// cluster builds the case's cluster with a random initial placement.
func (lc learnCase) cluster(t *testing.T) *dc.Cluster {
	t.Helper()
	set, err := trace.Generate(trace.DefaultGenConfig(lc.vms, lc.rounds+10, lc.seed))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dc.New(dc.Config{PMs: lc.pms, Workload: set, PMSpecFor: lc.specFor})
	if err != nil {
		t.Fatal(err)
	}
	cl.PlaceRandom(sim.NewRNG(lc.seed).Intn)
	return cl
}

// runLearnPhase runs the case's learning rounds with the given kernel beside
// Cyclon (8, 4), returning every node's tables.
func runLearnPhase(t *testing.T, reference bool, lc learnCase) []*NodeTables {
	return learnTables(t, lc.cluster(t), lc.cfg, lc.seed, 8, 4, lc.rounds, reference)
}

// TestLearnKernelDifferential pins the production kernel against the
// reference kernel draw-for-draw: identical clusters, seeds and random
// streams must yield cell-identical Q-tables on every node. Both kernels draw
// the same coins and evict the same VM; they differ only in how they add.
// The reference scans each partition element by element; the production
// kernel sums the sender as per-profile counts times the profile weights,
// derives the recipient as totals minus sender and the sender's post-action
// state by subtracting the evicted VM. Each of those sums can differ from the
// reference's at ulp scale, so equal tables are not guaranteed by
// construction: the calibrated level quantisation absorbs the differences,
// and this test is the witness that it does, across a multi-seed corpus, a
// heterogeneous fleet, multisets spanning several bitset words, base sets
// wider than one word, and a paper-shaped learning phase. The partition
// bitset and the division-free calibration are exact.
func TestLearnKernelDifferential(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{1, 2, 3, 7, 11, 42} {
		lc := learnCase{pms: 20, vms: 60, rounds: 30, seed: seed, cfg: DefaultConfig()}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			requireSameStores(t, "kernel", runLearnPhase(t, false, lc), runLearnPhase(t, true, lc))
		})
	}

	// Two PM generations: every node calibrates against its own capacity, and
	// a node's peer set mixes both.
	t.Run("heterogeneous", func(t *testing.T) {
		lc := learnCase{pms: 20, vms: 60, rounds: 30, seed: 13, cfg: DefaultConfig(), specFor: twoGenerations}
		got := runLearnPhase(t, false, lc)
		requireSameStores(t, "kernel", got, runLearnPhase(t, true, lc))
		caps := map[dc.Vec]bool{}
		for _, nt := range got {
			if nt.Trained {
				caps[nt.scratch.cal.cap] = true
			}
		}
		if len(caps) != 2 {
			t.Fatalf("trained nodes calibrated against %d capacities, want 2", len(caps))
		}
	})

	// PMs far larger than their VMs inflate the multisets past one bitset
	// word and drive small base sets into the 64× duplication cap: covering
	// 1.6× a bigBox's CPU takes more than 64 copies of a few VMs.
	t.Run("multi-word", func(t *testing.T) {
		lc := learnCase{pms: 20, vms: 60, rounds: 30, seed: 17, cfg: DefaultConfig(), specFor: bigBox}
		got := runLearnPhase(t, false, lc)
		requireSameStores(t, "kernel", got, runLearnPhase(t, true, lc))
		var multiWord, capped bool
		for _, nt := range got {
			sc := &nt.scratch
			multiWord = multiWord || cap(sc.bits) > 1
			capped = capped || (len(sc.base) > 0 && sc.total == 64*len(sc.base))
		}
		if !multiWord || !capped {
			t.Fatalf("corpus too small: multi-word bitset %v, 64× cap reached %v", multiWord, capped)
		}
	})

	// PMs thirty times a G5 host fifty VMs each and stay under the learning
	// gate, so a node's own and peer VMs make a base set wider than one
	// bitset word: profile j ≥ 64 starts in word 0 at a mask shift of 64 or
	// more, past the word's end.
	t.Run("wide-base", func(t *testing.T) {
		lc := learnCase{pms: 6, vms: 300, rounds: 20, seed: 19, cfg: DefaultConfig(), specFor: bigBox}
		got := runLearnPhase(t, false, lc)
		requireSameStores(t, "kernel", got, runLearnPhase(t, true, lc))
		wide := 0
		for _, nt := range got {
			wide = max(wide, len(nt.scratch.base))
		}
		if wide <= 64 {
			t.Fatalf("corpus too small: widest base set %d profiles, want > 64", wide)
		}
	})

	// The paper_glap shape: 120 PMs at three VMs per PM for fifty rounds.
	t.Run("paper-shaped", func(t *testing.T) {
		lc := learnCase{pms: 120, vms: 360, rounds: 50, seed: 1, cfg: DefaultConfig()}
		requireSameStores(t, "kernel", runLearnPhase(t, false, lc), runLearnPhase(t, true, lc))
	})
}

// bigBox is a PM model with thirty times the G5's capacity.
func bigBox(int) dc.PMSpec {
	s := dc.HPProLiantML110G5
	s.Capacity = s.Capacity.Scale(30)
	return s
}

// TestLearnKernelDifferentialCurrentDemandOnly repeats the differential
// check under the CurrentDemandOnly ablation, which flips every pre-action
// state and action to the current-demand signal.
func TestLearnKernelDifferentialCurrentDemandOnly(t *testing.T) {
	lc := learnCase{pms: 15, vms: 45, rounds: 25, seed: 5, cfg: DefaultConfig()}
	lc.cfg.CurrentDemandOnly = true
	requireSameStores(t, "kernel", runLearnPhase(t, false, lc), runLearnPhase(t, true, lc))
}

// TestCoverCountMatchesDuplicateToCover pins the arithmetic multiset size
// against the materialising reference across a sweep of profile sets and
// coverage targets, including the degenerate corners.
func TestCoverCountMatchesDuplicateToCover(t *testing.T) {
	cap := dc.Vec{2660, 4096}
	rng := sim.NewRNG(99)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		ps := make([]profile, n)
		for i := range ps {
			ps[i] = profile{
				avg: dc.Vec{rng.Float64() * 0.7, rng.Float64() * 0.7},
				cur: dc.Vec{rng.Float64() * 0.7, rng.Float64() * 0.7},
				cap: dc.Vec{100 + 500*rng.Float64(), 128 + 600*rng.Float64()},
			}
		}
		target := rng.Float64() * 3
		base := make([]kernelProfile, n)
		for i := range ps {
			base[i] = profileToKernel(ps[i])
		}
		want := len(duplicateToCover(append([]profile(nil), ps...), cap, target))
		got := coverCount(base, cap[dc.CPU], target)
		if got != want {
			t.Fatalf("trial %d (n=%d target=%g): coverCount=%d, duplicateToCover len=%d",
				trial, n, target, got, want)
		}
	}
}

// TestSenderCountsMatchElementFold pins the sender sums' per-profile counts
// against a per-element walk of the multiset, over random base sets and
// partitions: base-set sizes on both sides of one bitset word, multiset sizes
// from one copy of the base up to the 64× duplication cap. The count of
// base[j]'s copies under its element masks must equal the per-element count
// exactly; the count-weighted sums must lie within a few ulps of the fold
// that adds every sender element in multiset order, the one the reference
// kernel's subset scans perform. "A few" grows with the fold's length: the
// fold of m positive terms rounds m−1 times, each time by at most half an
// ulp of the running sum, so against it the tolerance is max(4, m/2) ulps of
// the result, plus the count-weighted sum's own nb roundings.
func TestSenderCountsMatchElementFold(t *testing.T) {
	rng := sim.NewRNG(123)
	var worst float64
	for _, nb := range []int{1, 6, 63, 64, 65, 70} {
		base := make([]kernelProfile, nb)
		for trial := 0; trial < 40; trial++ {
			for j := range base {
				base[j] = profileToKernel(profile{
					avg: dc.Vec{rng.Float64(), rng.Float64()},
					cur: dc.Vec{rng.Float64(), rng.Float64()},
					cap: dc.Vec{100 + 2000*rng.Float64(), 128 + 4000*rng.Float64()},
				})
			}
			total := nb + rng.Intn(63*nb+1)
			if trial == 0 {
				total = 64 * nb
			}
			words := (total + 63) >> 6
			masks := profileMasks(nil, nb, words)
			bs := make([]uint64, words)
			rng.BernoulliBits(bs, total, sim.Thresh53(0.15+0.7*rng.Float64()))

			counts := make([]int, nb)
			m := 0
			var fAvg, fCur dc.Vec
			for k := 0; k < total; k++ {
				if bs[k>>6]>>(uint(k)&63)&1 == 0 {
					continue
				}
				p := &base[k%nb]
				counts[k%nb]++
				m++
				for r := 0; r < dc.NumResources; r++ {
					fAvg[r] += p.wAvg[r]
					fCur[r] += p.wCur[r]
				}
			}
			for j := range base {
				c := 0
				for w, x := range bs {
					c += bits.OnesCount64(x & masks[j*words+w])
				}
				if c != counts[j] {
					t.Fatalf("nb=%d total=%d: profile %d counted %d times under its masks, %d by element",
						nb, total, j, c, counts[j])
				}
			}
			sAvg, sCur := senderSums(base, masks, bs)
			maxULPs := math.Max(4, float64(m)/2) + float64(nb)
			for r := 0; r < dc.NumResources; r++ {
				for _, pair := range [][2]float64{{sAvg[r], fAvg[r]}, {sCur[r], fCur[r]}} {
					got, want := pair[0], pair[1]
					ulps := math.Abs(got-want) / (math.Nextafter(want, math.Inf(1)) - want)
					worst = math.Max(worst, ulps/maxULPs)
					if ulps > maxULPs {
						t.Fatalf("nb=%d total=%d resource %d: count-weighted sum %v, element fold %v (%.0f ulps apart)",
							nb, total, r, got, want, ulps)
					}
				}
			}
		}
	}
	t.Logf("worst count-weighted vs element-fold gap: %.2f of the tolerance", worst)
}

// TestDuplicateToCoverEdgeCases covers the corners of the duplication rule
// for both the materialising reference and the arithmetic coverCount: zero
// aggregate CPU demand, an aggregate already above the target, the exact
// 64×-base blowup cap, and a single-profile input.
func TestDuplicateToCoverEdgeCases(t *testing.T) {
	cap := dc.Vec{2660, 4096}
	check := func(name string, ps []profile, target float64, wantLen int) {
		t.Helper()
		got := duplicateToCover(append([]profile(nil), ps...), cap, target)
		if len(got) != wantLen {
			t.Fatalf("%s: duplicateToCover len=%d, want %d", name, len(got), wantLen)
		}
		base := make([]kernelProfile, len(ps))
		for i := range ps {
			base[i] = profileToKernel(ps[i])
		}
		if n := coverCount(base, cap[dc.CPU], target); n != wantLen {
			t.Fatalf("%s: coverCount=%d, want %d", name, n, wantLen)
		}
	}

	// Zero aggregate CPU demand: duplication cannot make progress and must
	// return the input unchanged instead of looping forever.
	check("zero-cpu", []profile{
		{avg: dc.Vec{0, 0.5}, cur: dc.Vec{0.1, 0.5}, cap: dc.Vec{500, 613}},
		{avg: dc.Vec{0, 0.2}, cur: dc.Vec{0.2, 0.2}, cap: dc.Vec{500, 613}},
	}, 1.6, 2)

	// Aggregate already above target: no duplication at all.
	check("above-target", []profile{
		{avg: dc.Vec{0.9, 0.3}, cur: dc.Vec{0.9, 0.3}, cap: dc.Vec{2000, 613}},
		{avg: dc.Vec{0.9, 0.3}, cur: dc.Vec{0.9, 0.3}, cap: dc.Vec{2000, 613}},
	}, 0.5, 2)

	// Exact 64×-base cap: a demand so small the target is unreachable stops
	// at exactly 64 copies of each base profile, never more.
	check("cap-64x", []profile{
		{avg: dc.Vec{0.0001, 0}, cur: dc.Vec{0.0001, 0}, cap: dc.Vec{500, 613}},
	}, 5, 64)
	check("cap-64x-multi", []profile{
		{avg: dc.Vec{0.0001, 0}, cur: dc.Vec{0.0001, 0}, cap: dc.Vec{500, 613}},
		{avg: dc.Vec{0.0002, 0}, cur: dc.Vec{0.0002, 0}, cap: dc.Vec{500, 613}},
	}, 5, 128)

	// Single-profile input duplicating to a reachable target: the profile
	// contributes 0.5*500=250 CPU per copy toward 1.6*2660=4256, so 18
	// copies (ceil(4256/250)) are needed.
	check("single-profile", []profile{
		{avg: dc.Vec{0.5, 0.5}, cur: dc.Vec{0.5, 0.5}, cap: dc.Vec{500, 613}},
	}, 1.6, 18)
}

// TestTrainOncePartitionRetry characterises the partition retry rule, which
// is deliberately asymmetric: the 8-attempt loop only guards against an
// empty *sender* (without a sender there is no migration to simulate and
// the iteration is skipped), while an all-sender draw leaves the recipient
// partition empty and trains anyway — the empty virtual recipient is the
// legitimate (Low, Low) pre-state of an idle PM accepting the VM, a state
// φ^in demonstrably needs. Both kernels implement the same rule; the test
// pins both.
func TestTrainOncePartitionRetry(t *testing.T) {
	p := profile{avg: dc.Vec{0.5, 0.5}, cur: dc.Vec{0.5, 0.5}, cap: dc.Vec{500, 613}}
	cap := dc.Vec{2660, 4096}
	emptyState := LevelsOf(dc.Vec{}).State() // (Low, Low): the empty partition's state

	// With a single-element multiset every draw is all-or-nothing: the
	// element lands in the sender (recipient empty, trains) or the sender
	// is empty (retry, then skip). Scan seeds for both outcomes.
	runBoth := func(seed uint64) (fused, ref *NodeTables) {
		l := &LearnProtocol{Cfg: DefaultConfig()}
		fused = NewNodeTables()
		sc := &fused.scratch
		sc.base = append(sc.base[:0], profileToKernel(p))
		sc.total = 1
		sc.prepare(cap)
		l.trainOnce(sim.NewRNG(seed), fused, sc)
		ref = NewNodeTables()
		l.refTrainOnce(sim.NewRNG(seed), ref, []profile{p}, cap)
		return fused, ref
	}

	var sawTrain, sawSkip bool
	for seed := uint64(1); seed <= 200 && !(sawTrain && sawSkip); seed++ {
		fused, ref := runBoth(seed)
		if fused.Out.Len() != ref.Out.Len() || fused.In.Len() != ref.In.Len() {
			t.Fatalf("seed %d: kernels disagree (fused out=%d in=%d, ref out=%d in=%d)",
				seed, fused.Out.Len(), fused.In.Len(), ref.Out.Len(), ref.In.Len())
		}
		switch {
		case fused.Out.Len() == 1:
			// All-sender partition: the recipient table was trained on the
			// empty-target pre-state.
			sawTrain = true
			action := LevelsOf(p.avg).Action()
			if !fused.In.Has(emptyState, action) {
				t.Fatalf("seed %d: all-sender draw did not train φ^in on the empty-recipient state", seed)
			}
			if !fused.Out.Has(LevelsOf(p.avg.Mul(p.cap).Div(cap)).State(), action) {
				t.Fatalf("seed %d: sender pre-state not the lone profile's aggregate", seed)
			}
		case fused.Out.Len() == 0:
			// Eight empty-sender draws: the iteration is skipped entirely —
			// neither table may learn anything.
			sawSkip = true
			if fused.In.Len() != 0 {
				t.Fatalf("seed %d: skipped iteration still trained φ^in", seed)
			}
		}
	}
	if !sawTrain {
		t.Fatal("no seed produced the all-sender (empty recipient) case")
	}
	if !sawSkip {
		t.Fatal("no seed produced the 8×-empty-sender skip case")
	}
}

// TestLearnRoundZeroAlloc asserts the kernel's allocation invariant: once
// buffers and table backings are warm, a full learning round — profile
// collection, duplication bookkeeping, the element masks and learnIterations
// training iterations — performs zero heap allocations. The fleet is
// heterogeneous, so consecutive nodes of the measured pass calibrate against
// different capacities, each through the table in its own scratch.
func TestLearnRoundZeroAlloc(t *testing.T) {
	cl := learnCase{pms: 20, vms: 60, rounds: 70, seed: 9, specFor: twoGenerations}.cluster(t)
	e := sim.NewEngine(20, 9)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	e.Register(cyclon.New(8, 4))
	learn := &LearnProtocol{Cfg: DefaultConfig(), B: b}
	e.Register(learn)
	e.RunRounds(10) // warm up: allocate table backings and scratch

	// Pre-size every node's scratch and table backings to their worst case
	// so the measurement below is a pure steady-state check (a later round
	// can otherwise legitimately grow a high-water buffer once — the compact
	// cell arrays grow amortised, unlike the retired dense span).
	for _, n := range e.Nodes() {
		st := TablesOf(e, n)
		st.Out.Reserve(qlearn.DenseSpan * qlearn.DenseSpan)
		st.In.Reserve(qlearn.DenseSpan * qlearn.DenseSpan)
		sc := &st.scratch
		if cap(sc.ids) < 64 {
			sc.ids = make([]int, 0, 64)
		}
		if cap(sc.base) < 64 {
			sc.base = make([]kernelProfile, 0, 64)
		}
		if cap(sc.masks) < 64*64 {
			sc.masks = make([]uint64, 64*64)
		}
		if cap(sc.bits) < 64 {
			sc.bits = make([]uint64, 64)
		}
	}

	nodes := e.Nodes()
	allocs := testing.AllocsPerRun(20, func() {
		for _, n := range nodes {
			learn.Round(e, n, 10)
		}
	})
	if allocs != 0 {
		t.Fatalf("learning round allocates: %.1f allocs/run, want 0", allocs)
	}
}
