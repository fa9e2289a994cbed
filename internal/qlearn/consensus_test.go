package qlearn

import (
	"math"
	"math/rand"
	"testing"
)

// identicalOracle is Identical by definition, cell by cell through the public
// accessors: the same keys, and at every key the same non-NaN value bits.
func identicalOracle(ts []*Table) bool {
	ref := ts[0]
	for _, t := range ts[1:] {
		rk, tk := ref.Keys(), t.Keys()
		if len(rk) != len(tk) {
			return false
		}
		for i, k := range rk {
			if tk[i] != k {
				return false
			}
			x, y := ref.Get(k.S, k.A), t.Get(k.S, k.A)
			if x != x || math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		}
	}
	return true
}

func TestIdenticalIsBitwise(t *testing.T) {
	fill := func(cells map[Key]float64) *Table {
		tb := New(0.5, 0.8)
		for k, v := range cells {
			tb.Set(k.S, k.A, v)
		}
		return tb
	}
	base := map[Key]float64{{1, 2}: 0.25, {3, 4}: -1, {80, 7}: 2}
	with := func(k Key, v float64) map[Key]float64 {
		m := map[Key]float64{}
		for kk, vv := range base {
			m[kk] = vv
		}
		m[k] = v
		return m
	}
	negZero := math.Copysign(0, -1)
	a := fill(base)
	shared := fill(with(Key{5, 5}, math.NaN()))
	sharer := New(0.5, 0.8)
	Unify(sharer, shared) // adopts shared's backing, NaN and all
	empty := New(0.5, 0.8)
	emptyOwned := New(0.5, 0.8)
	emptyOwned.Reserve(4) // a backing with no cell
	cases := []struct {
		name string
		ts   []*Table
		want bool
	}{
		{"none", nil, true},
		{"one", []*Table{a}, true},
		{"distinct backings, same cells", []*Table{a, a.Clone(), a.Clone()}, true},
		{"a value differs in its last bit", []*Table{a, fill(with(Key{1, 2}, math.Nextafter(0.25, 1)))}, false},
		{"+0 against -0", []*Table{fill(with(Key{9, 9}, 0)), fill(with(Key{9, 9}, negZero))}, false},
		{"-0 against -0", []*Table{fill(with(Key{9, 9}, negZero)), fill(with(Key{9, 9}, negZero))}, true},
		{"an extra in-span cell", []*Table{a, fill(with(Key{8, 8}, 0))}, false},
		{"NaN on two backings", []*Table{shared, shared.Clone()}, false},
		{"NaN on one shared backing", []*Table{shared, sharer}, true},
		{"nil backing against a cell-less one", []*Table{empty, emptyOwned, empty}, true},
		{"empty against filled", []*Table{empty, a}, false},
		{"the difference comes last", []*Table{a, a.Clone(), sharer}, false},
	}
	for _, c := range cases {
		if got := Identical(c.ts); got != c.want {
			t.Errorf("%s: Identical = %v, want %v", c.name, got, c.want)
		}
		if len(c.ts) > 0 && c.name != "NaN on one shared backing" {
			if o := identicalOracle(c.ts); o != c.want {
				t.Errorf("%s: oracle says %v, the case %v", c.name, o, c.want)
			}
		}
	}
}

// TestIdenticalMatchesOracleOnGossip runs a gossip sequence over perturbed
// copies of one table and checks Identical against the oracle after every
// exchange, through the mid-convergence stretch where most but not all
// nodes agree.
func TestIdenticalMatchesOracleOnGossip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 12
	ts := make([]*Table, n)
	for i := range ts {
		ts[i] = New(0.5, 0.8)
		for k := 0; k < 40; k++ {
			ts[i].Set(State(rng.Intn(20)), Action(rng.Intn(20)), float64(rng.Intn(8)))
		}
	}
	agreed := false
	for step := 0; step < 4000; step++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			Merge(ts[i], ts[j])
		}
		got, want := Identical(ts), identicalOracle(ts)
		if got != want {
			t.Fatalf("step %d: Identical %v, oracle %v", step, got, want)
		}
		agreed = agreed || got
	}
	if !agreed {
		t.Fatal("the gossip never reached consensus; the test checked only disagreement")
	}
}

// sharing labels each table with the index of the first table sharing its
// backing.
func sharing(ts []*Table) []int {
	lab := make([]int, len(ts))
	for i := range ts {
		lab[i] = i
		for j := 0; j < i; j++ {
			if ts[j].b == ts[i].b {
				lab[i] = j
				break
			}
		}
	}
	return lab
}

// TestAdoptIsMergeOfIdenticalTables replays one random exchange sequence over
// identical tables spread across several backings twice — through Merge and
// through Adopt — and requires the same backing sharing and reference counts
// after every exchange.
func TestAdoptIsMergeOfIdenticalTables(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := New(0.5, 0.8)
	for k := 0; k < 300; k++ {
		src.Set(State(rng.Intn(81)), Action(rng.Intn(81)), rng.NormFloat64())
	}
	const n = 16
	viaMerge, viaAdopt := make([]*Table, n), make([]*Table, n)
	for i := 0; i < n; i++ {
		switch {
		case i%4 == 3: // shares the previous table's backing
			viaMerge[i], viaAdopt[i] = viaMerge[i-1].Clone(), viaAdopt[i-1].Clone()
			Unify(viaMerge[i], viaMerge[i-1])
			Unify(viaAdopt[i], viaAdopt[i-1])
		default:
			viaMerge[i], viaAdopt[i] = src.Clone(), src.Clone()
		}
	}
	for step := 0; step < 200; step++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if changed := Merge(viaMerge[i], viaMerge[j]); changed {
			t.Fatalf("step %d: Merge changed identical tables", step)
		}
		Adopt(viaAdopt[i], viaAdopt[j])
		lm, la := sharing(viaMerge), sharing(viaAdopt)
		for k := range lm {
			if lm[k] != la[k] || viaMerge[k].b.ref.Load() != viaAdopt[k].b.ref.Load() {
				t.Fatalf("step %d: table %d shares with %d (ref %d) after Merge, with %d (ref %d) after Adopt",
					step, k, lm[k], viaMerge[k].b.ref.Load(), la[k], viaAdopt[k].b.ref.Load())
			}
		}
	}
	if !Identical(viaAdopt) || !Equal(viaAdopt[0], src) {
		t.Fatal("adoption changed the contents")
	}
}
