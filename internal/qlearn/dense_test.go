package qlearn

import (
	"math/rand"
	"slices"
	"testing"
)

// tablesMatch compares a dense and a sparse table cell-for-cell over a
// probe window; probes past the span check that such cells read absent.
func tablesMatch(t *testing.T, d *Table, s *Sparse, probe int) {
	t.Helper()
	if d.Len() != s.Len() {
		t.Fatalf("Len: dense %d, sparse %d", d.Len(), s.Len())
	}
	for si := State(0); si < State(probe); si++ {
		for ai := Action(0); ai < Action(probe); ai++ {
			if d.Has(si, ai) != s.Has(si, ai) {
				t.Fatalf("Has(%d,%d): dense %v, sparse %v", si, ai, d.Has(si, ai), s.Has(si, ai))
			}
			if d.Get(si, ai) != s.Get(si, ai) {
				t.Fatalf("Get(%d,%d): dense %g, sparse %g", si, ai, d.Get(si, ai), s.Get(si, ai))
			}
		}
	}
}

// TestSparseDenseDifferential replays one recorded pseudo-random sequence of
// updates, sets and gossip merges through the dense backend and the retired
// sparse reference in lockstep, asserting identical tables at every merge
// point. Both implementations use identical arithmetic, so equality is
// exact, not approximate.
func TestSparseDenseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20160901))
	d1, d2 := New(0.5, 0.8), New(0.5, 0.8)
	s1, s2 := NewSparse(0.5, 0.8), NewSparse(0.5, 0.8)

	randState := func() State { return State(rng.Intn(81)) }
	randAction := func() Action { return Action(rng.Intn(81)) }

	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // Q-learning update on one endpoint
			s, a, next := randState(), randAction(), randState()
			r := rng.NormFloat64() * 10
			if rng.Intn(2) == 0 {
				gd, gs := d1.Update(s, a, r, next), s1.Update(s, a, r, next)
				if gd != gs {
					t.Fatalf("step %d: Update returned %g dense, %g sparse", step, gd, gs)
				}
			} else {
				d2.Update(s, a, r, next)
				s2.Update(s, a, r, next)
			}
		case op < 8: // raw write
			s, a := randState(), randAction()
			v := rng.NormFloat64()
			d1.Set(s, a, v)
			s1.Set(s, a, v)
		case op < 9: // raw write on the other endpoint
			s, a := randState(), randAction()
			v := rng.NormFloat64()
			d2.Set(s, a, v)
			s2.Set(s, a, v)
		default: // gossip merge
			Unify(d1, d2)
			UnifySparse(s1, s2)
			if !Equal(d1, d2) {
				t.Fatalf("step %d: dense tables differ after Unify", step)
			}
			if !EqualSparse(s1, s2) {
				t.Fatalf("step %d: sparse tables differ after UnifySparse", step)
			}
			tablesMatch(t, d1, s1, 90)
			tablesMatch(t, d2, s2, 90)
		}
	}
	tablesMatch(t, d1, s1, 90)
	tablesMatch(t, d2, s2, 90)

	// The MaxKnown landscape must agree too (it drives Update's bootstrap).
	for s := State(0); s < 90; s++ {
		if d1.MaxKnown(s) != s1.MaxKnown(s) {
			t.Fatalf("MaxKnown(%d): dense %g, sparse %g", s, d1.MaxKnown(s), s1.MaxKnown(s))
		}
	}
}

// TestUpdateAllocFree pins the dense backend's steady-state guarantee:
// once a table spans its keys, Update and Unify allocate nothing.
func TestUpdateAllocFree(t *testing.T) {
	tb := New(0.5, 0.8)
	tb.Set(0, 0, 1) // first write allocates the dense span
	if allocs := testing.AllocsPerRun(100, func() {
		tb.Update(3, 4, 5, 6)
	}); allocs != 0 {
		t.Fatalf("Update allocates %g objects/op in steady state", allocs)
	}

	p, q := New(0.5, 0.8), New(0.5, 0.8)
	p.Set(1, 2, 3)
	q.Set(4, 5, 6)
	Unify(p, q) // aligns the backings
	if allocs := testing.AllocsPerRun(100, func() {
		Unify(p, q)
	}); allocs != 0 {
		t.Fatalf("Unify allocates %g objects/op in steady state", allocs)
	}
}

// randomTable builds a dense table with ~density of the probe space filled.
func randomTable(rng *rand.Rand, density float64) *Table {
	tb := New(0.5, 0.8)
	for s := State(0); s < 81; s++ {
		for a := Action(0); a < 81; a++ {
			if rng.Float64() < density {
				tb.Set(s, a, rng.NormFloat64())
			}
		}
	}
	return tb
}

// TestUnifyCommutative checks that the merge has no side preference:
// Unify(p, q) and Unify(q, p) produce the same table.
func TestUnifyCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p, q := randomTable(rng, 0.3), randomTable(rng, 0.3)
		pc, qc := p.Clone(), q.Clone()
		Unify(p, q)
		Unify(qc, pc)
		if !Equal(p, qc) || !Equal(q, pc) {
			t.Fatalf("trial %d: Unify is not commutative", trial)
		}
	}
}

// TestUnifyIdempotentDense checks Unify twice == once: the second merge of
// two already-equal tables must not move any value.
func TestUnifyIdempotentDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		p, q := randomTable(rng, 0.4), randomTable(rng, 0.4)
		Unify(p, q)
		once := p.Clone()
		Unify(p, q)
		if !Equal(p, once) || !Equal(q, once) {
			t.Fatalf("trial %d: second Unify changed the tables", trial)
		}
	}
}

// TestUnifyPostEqual checks the merge contract directly: after Unify the two
// tables are Equal, whatever their overlap.
func TestUnifyPostEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		p, q := randomTable(rng, rng.Float64()), randomTable(rng, rng.Float64())
		Unify(p, q)
		if !Equal(p, q) {
			t.Fatalf("trial %d: tables differ after Unify", trial)
		}
	}
}

// TestGrowthBeyondSpan pins that a table never grows past the calibrated
// DenseSpan×DenseSpan span: Set panics on a cell outside it, leaving the
// table as it was, and Get, Has and MaxKnown read such a cell as absent —
// including the (1, 81) whose packed index aliases the real cell (2, 0).
func TestGrowthBeyondSpan(t *testing.T) {
	p := New(0.5, 0.8)
	p.Set(1, 1, 2)
	p.Set(2, 0, 5)
	for _, k := range []Key{{DenseSpan, 0}, {0, DenseSpan}, {1, DenseSpan}, {200, 300}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Set%v outside the span did not panic", k)
				}
			}()
			p.Set(k.S, k.A, 7)
		}()
		if p.Has(k.S, k.A) || p.Get(k.S, k.A) != 0 {
			t.Fatalf("cell %v outside the span reads as present", k)
		}
	}
	if p.Len() != 2 || p.Get(1, 1) != 2 || p.Get(2, 0) != 5 {
		t.Fatal("a refused Set changed the table")
	}
	if p.MaxKnown(DenseSpan) != 0 || p.MaxKnown(5000) != 0 {
		t.Fatal("MaxKnown of a state outside the span must be 0")
	}
}

// TestKeysOrderAfterGrowth pins Keys' deterministic (state, action) order on
// a table whose backing grew past its first capacity, filled in descending
// cell order so that every write inserts at the front.
func TestKeysOrderAfterGrowth(t *testing.T) {
	p := New(0.5, 0.8)
	var want []Key
	for s := State(DenseSpan - 1); ; s -= 8 {
		for a := Action(DenseSpan - 1); a < DenseSpan; a -= 20 {
			p.Set(s, a, float64(s)-float64(a))
			want = append(want, Key{s, a})
		}
		if s < 8 {
			break
		}
	}
	if len(want) <= minBackingCap {
		t.Fatalf("only %d cells: the backing never grew", len(want))
	}
	slices.Reverse(want)
	if keys := p.Keys(); !slices.Equal(keys, want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
}

// TestFillDense checks the dense vector adapter: layout, zero-fill of
// absent cells, buffer reuse.
func TestFillDense(t *testing.T) {
	p := New(0.5, 0.8)
	p.Set(1, 2, 5)
	p.Set(3, 0, -2)

	buf := make([]float64, 81*81)
	for i := range buf {
		buf[i] = 99 // stale garbage that FillDense must clear
	}
	got := p.FillDense(buf)
	if &got[0] != &buf[0] {
		t.Fatal("FillDense must fill the caller's buffer")
	}
	nonzero := 0
	for i, v := range got {
		switch i {
		case 1*81 + 2:
			if v != 5 {
				t.Fatalf("cell (1,2) = %g", v)
			}
			nonzero++
		case 3 * 81:
			if v != -2 {
				t.Fatalf("cell (3,0) = %g", v)
			}
			nonzero++
		default:
			if v != 0 {
				t.Fatalf("cell %d = %g, want 0", i, v)
			}
		}
	}
	if nonzero != 2 {
		t.Fatalf("%d nonzero cells", nonzero)
	}
}

// TestMergeMatchesUnify pins Merge against the Equal-then-Unify composition
// it replaced on the aggregation hot path: identical post-merge tables,
// a change report that matches what Equal would have said, and a MaxKnown
// landscape (i.e. rowMax cache state) indistinguishable from Unify's.
func TestMergeMatchesUnify(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		p, q := randomTable(rng, rng.Float64()), randomTable(rng, rng.Float64())
		if trial%4 == 0 {
			Unify(p, q) // exercise the already-equal (no-op) regime too
		}
		pu, qu := p.Clone(), q.Clone()

		wasEqual := Equal(pu, qu)
		if !wasEqual {
			Unify(pu, qu)
		}
		changed := Merge(p, q)

		if changed == wasEqual {
			t.Fatalf("trial %d: Merge reported changed=%v, Equal said %v", trial, changed, wasEqual)
		}
		if !Equal(p, pu) || !Equal(q, qu) || !Equal(p, q) {
			t.Fatalf("trial %d: Merge result differs from Equal+Unify", trial)
		}
		// Warm some rowMax entries before and read all after, so a stale
		// cache surviving a changing merge would surface here.
		for s := State(0); s < 81; s++ {
			if p.MaxKnown(s) != pu.MaxKnown(s) || q.MaxKnown(s) != qu.MaxKnown(s) {
				t.Fatalf("trial %d: MaxKnown(%d) diverged after Merge", trial, s)
			}
		}
	}
}

// TestMergeMisalignedBackings exercises Merge's slow path: tables with
// different cell sets, each holding a cell the other lacks, must still end
// up unified and equal.
func TestMergeMisalignedBackings(t *testing.T) {
	p := New(0.5, 0.8)
	p.Set(1, 1, 2)
	p.Set(80, 80, 7) // the span's last cell
	q := New(0.5, 0.8)
	q.Set(1, 1, 4)
	q.Set(3, 4, -1)
	if !Merge(p, q) {
		t.Fatal("differing tables: Merge must report a change")
	}
	if !Equal(p, q) || p.Get(1, 1) != 3 || q.Get(80, 80) != 7 || p.Get(3, 4) != -1 {
		t.Fatal("Merge across different cell sets broken")
	}
	if Merge(p, q) {
		t.Fatal("second Merge of equal tables must be a no-op")
	}
}

// TestMergeAllocFree extends the steady-state guarantee to Merge.
func TestMergeAllocFree(t *testing.T) {
	p, q := New(0.5, 0.8), New(0.5, 0.8)
	p.Set(1, 2, 3)
	q.Set(4, 5, 6)
	Unify(p, q)
	run := 0.0
	if allocs := testing.AllocsPerRun(100, func() {
		q.Set(7, 8, run) // keep the pair unequal so Merge does real work
		run++
		Merge(p, q)
	}); allocs != 0 {
		t.Fatalf("Merge allocates %g objects/op in steady state", allocs)
	}
}
