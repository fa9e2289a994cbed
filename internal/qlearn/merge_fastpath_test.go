package qlearn

import (
	"math/rand"
	"testing"
)

// fastPathPair builds a merge pair whose union is the fixed 300-cell set
// {0..299} (≥ canonMinCells) with values scaled by f: p misses cell 0 and q
// misses cell 299, so merging takes the union path and the resulting cell
// set qualifies for canonical interning.
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

// alignedTable returns a table whose backing aliases the canonical interned
// array for fastPathPair's cell set (idxShared, ref > 1 — the converged
// steady state), with values determined by f. Interning triggers on a set's
// second sighting, so at most two union merges are needed; earlier tests in
// the package may already have seeded the set.
func alignedTable(t testing.TB, f float64) *Table {
	t.Helper()
	for attempt := 0; attempt < 3; attempt++ {
		p, q := fastPathPair(f)
		Unify(p, q)
		if p.b.idxShared {
			return p
		}
	}
	t.Fatal("union merge never interned its cell set")
	return nil
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
// aliasing one canonical cell-set array, both backings shared — and checks
// the merge takes the aligned fast path (no union build), produces exactly
// the reference averages, and leaves the pair on one canonical-backed
// backing. The merge tests here and in merge_kernel_test.go run their body
// as an "f64" subtest, named for the float64 width Q-values are stored in.
func TestMergeFastPathAligned(t *testing.T) {
	t.Run("f64", testMergeFastPathAligned)
}

func testMergeFastPathAligned(t *testing.T) {
	a := alignedTable(t, 1)
	b := alignedTable(t, 2)
	if &a.b.idx[0] != &b.b.idx[0] {
		t.Fatal("pairs did not alias one canonical cell-set array")
	}
	canon := &a.b.idx[0]
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
	if !a.b.idxShared || &a.b.idx[0] != canon {
		t.Fatal("merged backing does not alias the canonical cell set")
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
	a := alignedTable(t, 1)
	b := alignedTable(t, 1)
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

// TestMergeFastPathSupersetAlias: a union that equals one side's canonical
// cell set must alias that array instead of rebuilding it, and still produce
// the reference result.
func TestMergeFastPathSupersetAlias(t *testing.T) {
	t.Run("f64", testMergeFastPathSupersetAlias)
}

func testMergeFastPathSupersetAlias(t *testing.T) {
	a := alignedTable(t, 1)
	canon := &a.b.idx[0]
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
	if !a.b.idxShared || &a.b.idx[0] != canon {
		t.Fatal("union did not alias the superset's canonical cell set")
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
// fast path once interning saturates — and every table must match the
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

// TestCellSetHashCache pins the idxHash lifecycle: lazily computed, carried
// across detach copies and clones, and invalidated by cell-set growth.
func TestCellSetHashCache(t *testing.T) {
	p, q := fastPathPair(1)
	Unify(p, q)
	b := p.b
	h := b.cellSetHash()
	if h == 0 || h != fnvIdx(b.idx) {
		t.Fatalf("cellSetHash = %#x, want fnvIdx %#x", h, fnvIdx(b.idx))
	}
	if b.idxHash.Load() != h {
		t.Fatal("cellSetHash did not cache its result")
	}
	c := p.Clone()
	if c.b.idxHash.Load() != h {
		t.Fatal("Clone dropped the cached cell-set identity")
	}
	c.Set(80, 80, 1) // new cell: identity must go stale
	if got := c.b.idxHash.Load(); got != 0 {
		t.Fatalf("insert left stale idxHash %#x", got)
	}
	if c.b.cellSetHash() != fnvIdx(c.b.idx) {
		t.Fatal("recomputed hash does not match grown cell set")
	}
}
