package qlearn

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ alpha, gamma float64 }{
		{0, 0.5}, {-0.1, 0.5}, {1.1, 0.5}, {0.5, -0.1}, {0.5, 1}, {0.5, 1.5},
		{math.NaN(), 0.5}, {0.5, math.NaN()}, {math.Inf(1), 0.5}, {0.5, math.Inf(-1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%g, %g) should panic", tc.alpha, tc.gamma)
				}
			}()
			New(tc.alpha, tc.gamma)
		}()
	}
	New(1, 0)   // boundary values are legal
	New(0.5, 0) // ditto
}

func TestGetSetHasLen(t *testing.T) {
	q := New(0.5, 0.8)
	if q.Len() != 0 || q.Has(1, 2) || q.Get(1, 2) != 0 {
		t.Fatal("fresh table should be empty with zero reads")
	}
	q.Set(1, 2, 3.5)
	if !q.Has(1, 2) || q.Get(1, 2) != 3.5 || q.Len() != 1 {
		t.Fatal("set/get broken")
	}
	q.Set(1, 2, -1) // overwrite, no length change
	if q.Get(1, 2) != -1 || q.Len() != 1 {
		t.Fatal("overwrite broken")
	}
	q.Set(1, 3, 7)
	q.Set(2, 2, 9)
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
}

func TestMaxKnown(t *testing.T) {
	q := New(0.5, 0.8)
	if q.MaxKnown(5) != 0 {
		t.Fatal("unknown state should bootstrap to 0")
	}
	q.Set(5, 1, -3)
	q.Set(5, 2, -7)
	if q.MaxKnown(5) != -3 {
		t.Fatalf("MaxKnown = %g, want -3 (all-negative row)", q.MaxKnown(5))
	}
	q.Set(5, 3, 4)
	if q.MaxKnown(5) != 4 {
		t.Fatalf("MaxKnown = %g, want 4", q.MaxKnown(5))
	}
}

// TestFindMatchesLinearScan holds find's arithmetic halving to a linear
// lower-bound scan: the same position and presence for every cell index,
// present or absent, on cell sets of every small size and on larger random
// ones.
func TestFindMatchesLinearScan(t *testing.T) {
	seed := uint64(1)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	for trial := 0; trial < 120; trial++ {
		cells := trial
		if trial >= 40 {
			cells = int(next() % 3000)
		}
		b := &backing{}
		for ci := 0; ci < DenseSpan*DenseSpan && len(b.idx) < cells; ci++ {
			if int(next()%uint64(DenseSpan*DenseSpan)) < cells+cells/2+1 {
				b.idx = append(b.idx, uint16(ci))
			}
		}
		want := 0 // lower bound of ci in b.idx, advanced as ci grows
		for ci := 0; ci <= DenseSpan*DenseSpan; ci++ {
			for want < len(b.idx) && int(b.idx[want]) < ci {
				want++
			}
			wok := want < len(b.idx) && int(b.idx[want]) == ci
			if gi, gok := b.find(uint16(ci)); gi != want || gok != wok {
				t.Fatalf("%d cells, index %d: find = (%d, %v), linear scan = (%d, %v)", len(b.idx), ci, gi, gok, want, wok)
			}
		}
	}
}

func TestUpdateFormula(t *testing.T) {
	q := New(0.5, 0.8)
	q.Set(1, 1, 10)  // Q_t(s,a)
	q.Set(2, 9, 20)  // max_a' Q_t(s',a')
	q.Set(2, 8, -50) // not the max
	got := q.Update(1, 1, 4, 2)
	// (1-0.5)*10 + 0.5*(4 + 0.8*20) = 5 + 0.5*20 = 15
	want := 15.0
	if math.Abs(got-want) > 1e-12 || math.Abs(q.Get(1, 1)-want) > 1e-12 {
		t.Fatalf("Update = %g, want %g", got, want)
	}
	// Unknown next state bootstraps to 0.
	got = q.Update(3, 3, -10, 99)
	// (1-0.5)*0 + 0.5*(-10 + 0) = -5
	if math.Abs(got-(-5)) > 1e-12 {
		t.Fatalf("Update = %g, want -5", got)
	}
}

func TestUpdateConverges(t *testing.T) {
	// Repeated identical transitions must converge to R + gamma*maxNext.
	q := New(0.5, 0.8)
	q.Set(2, 1, 100)
	for i := 0; i < 200; i++ {
		q.Update(1, 1, 5, 2)
	}
	want := 5 + 0.8*100
	if math.Abs(q.Get(1, 1)-want) > 1e-6 {
		t.Fatalf("fixed point %g, want %g", q.Get(1, 1), want)
	}
}

func TestBest(t *testing.T) {
	q := New(0.5, 0.8)
	if _, _, ok := q.Best(1, nil); ok {
		t.Fatal("Best over empty candidates should report !ok")
	}
	q.Set(1, 10, 5)
	q.Set(1, 20, 9)
	q.Set(1, 30, -2)
	a, v, ok := q.Best(1, []Action{10, 20, 30})
	if !ok || a != 20 || v != 9 {
		t.Fatalf("Best = %d, %g, %v", a, v, ok)
	}
	// Unwritten candidates read as 0 and can win over negatives.
	a, v, ok = q.Best(1, []Action{30, 99})
	if !ok || a != 99 || v != 0 {
		t.Fatalf("Best = %d, %g, %v", a, v, ok)
	}
	// Ties break toward the earlier candidate.
	q.Set(1, 40, 9)
	a, _, _ = q.Best(1, []Action{40, 20})
	if a != 40 {
		t.Fatalf("tie broke to %d, want 40", a)
	}
}

func TestKeysSorted(t *testing.T) {
	q := New(0.5, 0.8)
	q.Set(2, 1, 1)
	q.Set(1, 2, 1)
	q.Set(1, 1, 1)
	keys := q.Keys()
	want := []Key{{1, 1}, {1, 2}, {2, 1}}
	if len(keys) != len(want) {
		t.Fatalf("keys %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys %v, want %v", keys, want)
		}
	}
}

func TestFlatAndClone(t *testing.T) {
	q := New(0.5, 0.8)
	q.Set(1, 1, 2.5)
	q.Set(3, 4, -1)
	flat := q.Flat()
	if len(flat) != 2 || flat[Key{1, 1}] != 2.5 || flat[Key{3, 4}] != -1 {
		t.Fatalf("flat %v", flat)
	}
	c := q.Clone()
	if !Equal(q, c) {
		t.Fatal("clone not equal")
	}
	c.Set(1, 1, 99)
	if q.Get(1, 1) == 99 {
		t.Fatal("clone shares storage with original")
	}
	if c.Alpha != q.Alpha || c.Gamma != q.Gamma {
		t.Fatal("clone lost parameters")
	}
}

func TestUnify(t *testing.T) {
	p := New(0.5, 0.8)
	q := New(0.5, 0.8)
	p.Set(1, 1, 10) // both
	q.Set(1, 1, 20)
	p.Set(2, 2, 5) // only p
	q.Set(3, 3, 7) // only q

	Unify(p, q)

	if !Equal(p, q) {
		t.Fatal("tables not equal after Unify")
	}
	if p.Get(1, 1) != 15 {
		t.Fatalf("common cell = %g, want 15", p.Get(1, 1))
	}
	if p.Get(2, 2) != 5 || q.Get(2, 2) != 5 {
		t.Fatal("p-only cell not propagated")
	}
	if p.Get(3, 3) != 7 || q.Get(3, 3) != 7 {
		t.Fatal("q-only cell not propagated")
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
}

func TestUnifyIdempotentOnEqual(t *testing.T) {
	p := New(0.5, 0.8)
	p.Set(1, 1, 4)
	p.Set(2, 7, -3)
	q := p.Clone()
	Unify(p, q)
	if p.Get(1, 1) != 4 || p.Get(2, 7) != -3 {
		t.Fatal("Unify on equal tables changed values")
	}
}

func TestUnifyProperty(t *testing.T) {
	// Property: after Unify, tables are equal, the key set is the union,
	// and common keys hold the pairwise average.
	f := func(pa, qa map[uint8]int8) bool {
		p := New(0.5, 0.8)
		q := New(0.5, 0.8)
		for k, v := range pa {
			p.Set(State(k%7), Action(k/7), float64(v))
		}
		for k, v := range qa {
			q.Set(State(k%7), Action(k/7), float64(v))
		}
		pOrig := p.Clone()
		qOrig := q.Clone()
		Unify(p, q)
		if !Equal(p, q) {
			return false
		}
		for _, k := range p.Keys() {
			pHad, qHad := pOrig.Has(k.S, k.A), qOrig.Has(k.S, k.A)
			switch {
			case pHad && qHad:
				want := (pOrig.Get(k.S, k.A) + qOrig.Get(k.S, k.A)) / 2
				if p.Get(k.S, k.A) != want {
					return false
				}
			case pHad:
				if p.Get(k.S, k.A) != pOrig.Get(k.S, k.A) {
					return false
				}
			case qHad:
				if p.Get(k.S, k.A) != qOrig.Get(k.S, k.A) {
					return false
				}
			default:
				return false // key appeared from nowhere
			}
		}
		return p.Len() >= pOrig.Len() && p.Len() >= qOrig.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEqual(t *testing.T) {
	p := New(0.5, 0.8)
	q := New(0.5, 0.8)
	if !Equal(p, q) {
		t.Fatal("empty tables should be equal")
	}
	p.Set(1, 1, 2)
	if Equal(p, q) {
		t.Fatal("different lengths should not be equal")
	}
	q.Set(1, 1, 3)
	if Equal(p, q) {
		t.Fatal("different values should not be equal")
	}
	q.Set(1, 1, 2)
	if !Equal(p, q) {
		t.Fatal("same contents should be equal")
	}
	p.Set(2, 2, 1)
	q.Set(3, 3, 1)
	if Equal(p, q) {
		t.Fatal("same length, different keys should not be equal")
	}
}

// TestCapRoundPinned pins the capacity schedule: a fresh backing's cell and
// value arrays both follow capRound.
func TestCapRoundPinned(t *testing.T) {
	cases := map[int]int{
		0:    minBackingCap,
		1:    minBackingCap,
		15:   minBackingCap,
		16:   128,
		100:  192,
		500:  576,
		2047: 2112,
		2048: 2048,
		2049: 2064,
		5000: 5008,
	}
	for need, want := range cases {
		if got := capRound(need); got != want {
			t.Fatalf("capRound(%d) = %d, want %d", need, got, want)
		}
	}
	for need := range cases {
		b := newBacking(need)
		if cap(b.vals) != capRound(need) || cap(b.idx) != capRound(need) {
			t.Fatalf("newBacking(%d): caps idx=%d vals=%d", need, cap(b.idx), cap(b.vals))
		}
	}
}

// TestFootprintValueBytes: Footprint's value-byte accounting charges 8 bytes
// per reserved value slot, inside the total.
func TestFootprintValueBytes(t *testing.T) {
	tb := New(0.5, 0.8)
	for i := 0; i < 300; i++ {
		tb.Set(State(i/81), Action(i%81), float64(i))
	}
	backings, bytes, vb, cells := Footprint([]*Table{tb})
	if backings != 1 || cells != 300 {
		t.Fatalf("backings = %d, cells = %d, want 1 and 300", backings, cells)
	}
	if vb != int64(cap(tb.b.vals))*8 {
		t.Fatalf("valueBytes = %d, want 8 per slot of %d", vb, cap(tb.b.vals))
	}
	if vb > bytes {
		t.Fatal("valueBytes exceeds total bytes")
	}
}

// TestFootprintAliasedArrayOnce: a cell array that several backings alias
// is charged once, and a private one its full capacity.
func TestFootprintAliasedArrayOnce(t *testing.T) {
	ts := alignedTables(t, 1, 2)
	a, b := ts[0].b, ts[1].b
	backings, bytes, vb, cells := Footprint(ts)
	wantVB := int64(cap(a.vals)+cap(b.vals)) * 8
	if backings != 2 || cells != 600 || vb != wantVB || bytes != vb+int64(cap(a.idx))*2 {
		t.Fatalf("aliased pair: backings %d, bytes %d, valueBytes %d, cells %d; want 2, %d, %d, 600",
			backings, bytes, vb, cells, wantVB+int64(cap(a.idx))*2, wantVB)
	}
	c := fullSet(3)
	_, bytes3, vb3, _ := Footprint(append(ts, c))
	if vb3 != vb+int64(cap(c.b.vals))*8 || bytes3 != bytes+int64(cap(c.b.idx))*2+int64(cap(c.b.vals))*8 {
		t.Fatalf("private table charged %d bytes, want idx cap %d and vals cap %d", bytes3-bytes, cap(c.b.idx), cap(c.b.vals))
	}
}
