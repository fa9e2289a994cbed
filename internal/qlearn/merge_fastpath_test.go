package qlearn

import (
	"math"
	"math/rand"
	"testing"
)

// fastPathPair builds a merge pair whose union is the fixed 300-cell set
// {0..299} (≥ shareMinCells) with values scaled by f: p misses cell 0 and q
// misses cell 299, so merging takes the general union path.
func fastPathPair(f float64) (*Table, *Table) {
	p, q := New(0.5, 0.8), New(0.5, 0.8)
	for i := 0; i < 300; i++ {
		s, a := State(i/81), Action(i%81)
		if i != 0 {
			p.Set(s, a, f*float64(i+1))
		}
		if i != 299 {
			q.Set(s, a, 3*f*float64(i+1))
		}
	}
	return p, q
}

// fullSet returns a table holding every cell of fastPathPair's union, the
// value of cell i being f·(i+1), in a private cell array.
func fullSet(f float64) *Table {
	t := New(0.5, 0.8)
	for i := 0; i < 300; i++ {
		t.Set(State(i/81), Action(i%81), f*float64(i+1))
	}
	return t
}

// holder returns a new table sharing t's backing, so that the backing's
// reference count rises by one (a one-sided merge).
func holder(t *Table) *Table {
	h := New(t.Alpha, t.Gamma)
	Merge(h, t)
	return h
}

// alignedTables returns one table per factor f, each over fastPathPair's
// cell set with values scaled by f, on distinct backings that all alias one
// shared cell array and are each held twice — the converged steady state.
// It is built the way aggregation builds it. Every table starts on a private
// array, its backing held by a twin as well, and a pivot merges with each
// twin in turn. Each such merge meets equal cell sets in different arrays,
// keeps the older array — the pivot's — and re-points the backing the table
// still holds to it. The pivot holds +Inf in every cell, and every average
// with it stays +Inf, so it never matches a table and every merge takes the
// union path.
func alignedTables(t testing.TB, fs ...float64) []*Table {
	t.Helper()
	pivot := fullSet(math.Inf(1))
	holder(pivot)
	out := make([]*Table, len(fs))
	for i, f := range fs {
		twin := fullSet(f)
		out[i] = holder(twin)
		Merge(pivot, twin)
	}
	for i, tb := range out {
		holder(tb)
		if !tb.b.idxShared || &tb.b.idx[0] != &pivot.b.idx[0] || tb.b.ref.Load() != 2 {
			t.Fatalf("table %d does not alias the pivot's shared cell array", i)
		}
	}
	return out
}

// refMerge is the map-based reference of Algorithm 2's UPDATE: average cells
// present in both (only when the values differ — matching the merge kernels,
// which copy agreeing values verbatim), copy cells present in one.
func refMerge(a, b map[Key]float64) map[Key]float64 {
	out := make(map[Key]float64, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if av, ok := out[k]; ok {
			if av != v {
				out[k] = (av + v) / 2
			}
		} else {
			out[k] = v
		}
	}
	return out
}

func flatEqual(t *testing.T, got *Table, want map[Key]float64, label string) {
	t.Helper()
	f := got.Flat()
	if len(f) != len(want) {
		t.Fatalf("%s: %d cells, want %d", label, len(f), len(want))
	}
	for k, v := range want {
		if f[k] != v {
			t.Fatalf("%s: cell %v = %v, want %v", label, k, f[k], v)
		}
	}
}

// TestMergeFastPathAligned drives the converged steady state — two pairs
// aliasing one shared cell array, both backings shared — and checks the
// merge takes the aligned fast path (no union build), produces exactly the
// reference averages, and leaves the pair on one backing aliasing that
// array. The merge tests here and in merge_kernel_test.go run their body
// as an "f64" subtest, named for the float64 width Q-values are stored in.
func TestMergeFastPathAligned(t *testing.T) {
	t.Run("f64", testMergeFastPathAligned)
}

func testMergeFastPathAligned(t *testing.T) {
	ts := alignedTables(t, 1, 2)
	a, b := ts[0], ts[1]
	shared := &a.b.idx[0]
	want := refMerge(a.Flat(), b.Flat())
	before := ReadMergeStats()
	if !Merge(a, b) {
		t.Fatal("Merge of differing aligned tables reported no change")
	}
	after := ReadMergeStats()
	if after.AlignedIdx != before.AlignedIdx+1 {
		t.Fatalf("AlignedIdx %d -> %d, want +1", before.AlignedIdx, after.AlignedIdx)
	}
	if after.Unions != before.Unions {
		t.Fatal("aligned merge fell through to the general union path")
	}
	if a.b != b.b {
		t.Fatal("merge left the pair on separate backings")
	}
	if !a.b.idxShared || &a.b.idx[0] != shared {
		t.Fatal("merged backing does not alias the shared cell array")
	}
	flatEqual(t, a, want, "merged table")
	flatEqual(t, b, want, "merged peer")
}

// TestMergeFastPathAlignedCollapse: an aligned pair with identical values
// must collapse onto one backing with no writes and report no change.
func TestMergeFastPathAlignedCollapse(t *testing.T) {
	t.Run("f64", testMergeFastPathAlignedCollapse)
}

func testMergeFastPathAlignedCollapse(t *testing.T) {
	ts := alignedTables(t, 1, 1)
	a, b := ts[0], ts[1]
	before := ReadMergeStats()
	if Merge(a, b) {
		t.Fatal("Merge of equal aligned tables reported a change")
	}
	after := ReadMergeStats()
	if after.AlignedIdx != before.AlignedIdx+1 {
		t.Fatalf("AlignedIdx %d -> %d, want +1", before.AlignedIdx, after.AlignedIdx)
	}
	if a.b != b.b {
		t.Fatal("equal aligned pair did not collapse onto one backing")
	}
}

// TestMergeFastPathSupersetAlias: a union that equals one side's shared
// cell array must alias that array instead of rebuilding it, and still
// produce the reference result.
func TestMergeFastPathSupersetAlias(t *testing.T) {
	t.Run("f64", testMergeFastPathSupersetAlias)
}

func testMergeFastPathSupersetAlias(t *testing.T) {
	a := alignedTables(t, 1)[0]
	shared := &a.b.idx[0]
	sub := New(0.5, 0.8)
	for i := 10; i < 20; i++ {
		sub.Set(State(i/81), Action(i%81), 5)
	}
	want := refMerge(a.Flat(), sub.Flat())
	before := ReadMergeStats()
	if !Merge(a, sub) {
		t.Fatal("Merge with a differing subset reported no change")
	}
	after := ReadMergeStats()
	if after.Unions != before.Unions+1 {
		t.Fatalf("Unions %d -> %d, want +1", before.Unions, after.Unions)
	}
	if after.AlignedIdx != before.AlignedIdx {
		t.Fatal("subset merge wrongly counted as aligned")
	}
	if a.b != sub.b {
		t.Fatal("merge left the pair on separate backings")
	}
	if !a.b.idxShared || &a.b.idx[0] != shared {
		t.Fatal("union did not alias the superset's shared cell array")
	}
	flatEqual(t, a, want, "superset table")
	flatEqual(t, sub, want, "subset table")
}

// TestMergeFastPathSharedBacking: re-merging an already-merged pair is a
// pointer compare.
func TestMergeFastPathSharedBacking(t *testing.T) {
	p, q := fastPathPair(1)
	Unify(p, q)
	before := ReadMergeStats()
	if Merge(p, q) {
		t.Fatal("Merge of a pair sharing one backing reported a change")
	}
	after := ReadMergeStats()
	if after.SharedBacking != before.SharedBacking+1 {
		t.Fatalf("SharedBacking %d -> %d, want +1", before.SharedBacking, after.SharedBacking)
	}
	if after.FastHits() <= before.FastHits() {
		t.Fatal("FastHits did not advance")
	}
}

// TestMergeFastPathGossipDifferential replays a pseudo-random gossip mixing
// schedule over eight tables against the map-based reference.
// The schedule organically exercises every merge path — unions while cell
// sets still differ, adopts and collapses as pairs converge, and the aligned
// fast path once shared arrays spread — and every table must match the
// reference cell-for-cell after every exchange.
func TestMergeFastPathGossipDifferential(t *testing.T) {
	t.Run("f64", testMergeFastPathGossipDifferential)
}

func testMergeFastPathGossipDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 8
	tables := make([]*Table, n)
	refs := make([]map[Key]float64, n)
	for i := range tables {
		tables[i] = New(0.5, 0.8)
		refs[i] = map[Key]float64{}
		for c := 0; c < 280+rng.Intn(40); c++ {
			ci := rng.Intn(DenseSpan * DenseSpan)
			s, a := State(ci/DenseSpan), Action(ci%DenseSpan)
			v := rng.NormFloat64()
			tables[i].Set(s, a, v)
			refs[i][Key{S: s, A: a}] = v
		}
	}
	for step := 0; step < 200; step++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		m := refMerge(refs[i], refs[j])
		changed := len(m) != len(refs[i]) || len(m) != len(refs[j])
		if !changed {
			for k, v := range m {
				if refs[i][k] != v || refs[j][k] != v {
					changed = true
					break
				}
			}
		}
		if got := Merge(tables[i], tables[j]); got != changed {
			t.Fatalf("step %d: Merge(%d,%d) = %v, reference says %v", step, i, j, got, changed)
		}
		refs[i], refs[j] = m, m
		flatEqual(t, tables[i], m, "post-merge left")
		flatEqual(t, tables[j], m, "post-merge right")
	}
}

// TestMergeStatsByOutcome merges one pair of each outcome class and checks
// that exactly its MergeStats counter rises, alongside Merges; a one-sided
// merge (one table empty) raises Merges alone, which is what the identity in
// MergeStats' comment counts. ResetMergeStats must then zero every counter.
func TestMergeStatsByOutcome(t *testing.T) {
	cases := []struct {
		name string
		pair func() (*Table, *Table)
		want MergeStats
	}{
		{"shared", func() (*Table, *Table) {
			p, q := fastPathPair(1)
			Unify(p, q)
			return p, q
		}, MergeStats{SharedBacking: 1}},
		{"aligned", func() (*Table, *Table) {
			ts := alignedTables(t, 1, 2)
			return ts[0], ts[1]
		}, MergeStats{AlignedIdx: 1}},
		{"equal-collapse", func() (*Table, *Table) { return fullSet(1), fullSet(1) }, MergeStats{EqualCollapse: 1}},
		{"adopted", func() (*Table, *Table) { return fullSet(1), fullSet(2) }, MergeStats{AdoptedIdx: 1}},
		{"union", func() (*Table, *Table) { return fastPathPair(1) }, MergeStats{Unions: 1}},
		{"one-sided", func() (*Table, *Table) { return New(0.5, 0.8), fullSet(1) }, MergeStats{}},
	}
	for _, c := range cases {
		p, q := c.pair()
		before := ReadMergeStats()
		Merge(p, q)
		after := ReadMergeStats()
		got := MergeStats{
			Merges:        after.Merges - before.Merges,
			SharedBacking: after.SharedBacking - before.SharedBacking,
			AlignedIdx:    after.AlignedIdx - before.AlignedIdx,
			EqualCollapse: after.EqualCollapse - before.EqualCollapse,
			AdoptedIdx:    after.AdoptedIdx - before.AdoptedIdx,
			Unions:        after.Unions - before.Unions,
		}
		want := c.want
		want.Merges = 1
		if got != want {
			t.Fatalf("%s: counters rose by %+v, want %+v", c.name, got, want)
		}
		oneSided := uint64(0)
		if c.want == (MergeStats{}) {
			oneSided = 1
		}
		if d := got.Merges - got.FastHits() - got.Unions; d != oneSided {
			t.Fatalf("%s: Merges − FastHits − Unions = %d, want %d", c.name, d, oneSided)
		}
	}
	s := ReadMergeStats()
	if s.Merges == 0 || s.SharedBacking == 0 || s.AlignedIdx == 0 || s.EqualCollapse == 0 || s.AdoptedIdx == 0 || s.Unions == 0 {
		t.Fatalf("some counter never rose: %+v", s)
	}
	ResetMergeStats()
	if s := ReadMergeStats(); s != (MergeStats{}) {
		t.Fatalf("ResetMergeStats left %+v", s)
	}
}

// TestAliasLayoutDependsOnMergeSequence: which backings alias which cell
// arrays is fixed by each lane's merge sequence alone, however the lanes'
// merges interleave. Each of two lanes holds four groups of six tables, and
// each group's tables together cover one cell set. A lane's fixed schedule
// first gossips within each group, so that each group saturates onto an
// array of its own, and then across the groups, where merges meet equal
// cell sets in different arrays and keep the older. The lanes run one after
// the other, in the reverse order, merge by merge in turn, and concurrently;
// each time every table must end on a backing and a cell array in the same
// position of the first-seen order, with the same length, sharing and
// reference count — and hold the same values.
func TestAliasLayoutDependsOnMergeSequence(t *testing.T) {
	type cellLayout struct {
		backing, array, len int
		shared              bool
		ref                 int32
	}
	const lanes, groups, size, steps = 2, 4, 6, 600
	const n = groups * size
	run := func(order string) ([]cellLayout, [][]float64) {
		rng := rand.New(rand.NewSource(11))
		tables := make([][]*Table, lanes)
		schedules := make([][][2]int, lanes)
		for l := range tables {
			for i := 0; i < n; i++ {
				tb := New(0.5, 0.8)
				for ci := i % size; ci < 2400; ci += size {
					tb.Set(State(ci/DenseSpan), Action(ci%DenseSpan), rng.NormFloat64())
				}
				tables[l] = append(tables[l], tb)
			}
			for s := 0; s < steps; s++ {
				i, j := rng.Intn(n), rng.Intn(n-1)
				if j >= i {
					j++
				}
				if s < steps/2 {
					// The first half of the schedule stays within groups.
					i, j = i/size*size+i%size, i/size*size+j%size
					if i == j {
						j = i/size*size + (j+1)%size
					}
				}
				schedules[l] = append(schedules[l], [2]int{i, j})
			}
		}
		merge := func(l, s int) {
			Merge(tables[l][schedules[l][s][0]], tables[l][schedules[l][s][1]])
		}
		lane := func(l int) {
			for s := range schedules[l] {
				merge(l, s)
			}
		}
		switch order {
		case "0 then 1":
			lane(0)
			lane(1)
		case "1 then 0":
			lane(1)
			lane(0)
		case "in turn":
			for s := 0; s < steps; s++ {
				merge(0, s)
				merge(1, s)
			}
		case "concurrent":
			done := make(chan struct{})
			go func() { lane(1); close(done) }()
			lane(0)
			<-done
		}
		backings := map[*backing]int{}
		arrays := map[*uint16]int{}
		var out []cellLayout
		var vals [][]float64
		for _, ts := range tables {
			for _, tb := range ts {
				b := tb.b
				if _, ok := backings[b]; !ok {
					backings[b] = len(backings)
				}
				a := &b.idx[0]
				if _, ok := arrays[a]; !ok {
					arrays[a] = len(arrays)
				}
				out = append(out, cellLayout{backings[b], arrays[a], len(b.idx), b.idxShared, b.ref.Load()})
				vals = append(vals, b.vals)
			}
		}
		return out, vals
	}
	base, baseVals := run("0 then 1")
	shared := 0
	for _, c := range base {
		if c.shared {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no table ended on a shared cell array")
	}
	for _, order := range []string{"1 then 0", "in turn", "concurrent"} {
		got, vals := run(order)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("lanes %s, table %d: layout %+v, want %+v", order, i, got[i], base[i])
			}
			if !sameValues(vals[i], baseVals[i]) {
				t.Fatalf("lanes %s, table %d: values differ", order, i)
			}
		}
	}
}
