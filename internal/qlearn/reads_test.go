package qlearn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// The op codes of FuzzTableReads' input: each op is six bytes, [code, i, j,
// x, y, z], over four tables.
const (
	opSet = iota
	opUpdate
	opMerge
	opAdopt
	opClone
	opReserve
	opCodec
	opFill
	opCheck
	numReadOps
)

// readOp encodes one op of FuzzTableReads' input.
func readOp(code, i, j, x, y, z byte) []byte { return []byte{code, i, j, x, y, z} }

// readSeeds are op sequences that reach each way a cell array changes under
// a built index: inserts into an owned backing; the one-sided adoption; the
// superset alias followed by the aligned merge of the two backings aliasing
// one array; the equal-set merge of two shared backings, which re-points the
// loser's array; the union build; the copy-on-write detach; Clone, Reserve
// and the codec round trip.
func readSeeds() [][]byte {
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	return [][]byte{
		cat(readOp(opSet, 0, 0, 3, 4, 9), readOp(opCheck, 0, 0, 0, 0, 0),
			readOp(opSet, 0, 0, 3, 2, 0x7f), readOp(opCheck, 0, 0, 0, 0, 0),
			readOp(opUpdate, 0, 0, 3, 2, 40), readOp(opSet, 0, 0, 80, 80, 1)),
		// t0 and t3 share one 300-cell backing; t1 holds a subset of it, so
		// merging t0 and t1 aliases the backing's array, and merging t0 with
		// t3 then takes the aligned path. The insert into t0 detaches it.
		cat(readOp(opFill, 0, 0, 10, 44, 0), readOp(opMerge, 0, 3, 0, 0, 0),
			readOp(opCheck, 0, 0, 0, 0, 0), readOp(opSet, 1, 0, 4, 10, 5),
			readOp(opMerge, 0, 1, 0, 0, 0), readOp(opCheck, 3, 0, 0, 0, 0),
			readOp(opCheck, 0, 0, 0, 0, 0), readOp(opMerge, 0, 3, 0, 0, 0),
			readOp(opCheck, 3, 0, 0, 0, 0), readOp(opSet, 0, 0, 0, 0, 3)),
		// t0/t2 and t1/t3 hold one cell set with other values, each pair on
		// one backing: their merge re-points the losing backing's array.
		cat(readOp(opFill, 0, 0, 20, 60, 0), readOp(opClone, 1, 0, 0, 0, 0),
			readOp(opSet, 1, 0, 6, 20, 77), readOp(opMerge, 0, 2, 0, 0, 0),
			readOp(opMerge, 1, 3, 0, 0, 0), readOp(opCheck, 2, 0, 0, 0, 0),
			readOp(opCheck, 3, 0, 0, 0, 0), readOp(opMerge, 0, 1, 0, 0, 0),
			readOp(opCheck, 2, 0, 0, 0, 0), readOp(opCheck, 3, 0, 0, 0, 0),
			readOp(opAdopt, 2, 3, 0, 0, 0)),
		// Two small overlapping tables: the union build, then a write to a
		// present cell of the shared result, whose copy-on-write detach
		// takes a pooled backing that held an index.
		cat(readOp(opSet, 0, 0, 1, 1, 1), readOp(opSet, 0, 0, 1, 5, 2),
			readOp(opSet, 1, 0, 1, 3, 3), readOp(opCheck, 0, 0, 0, 0, 0),
			readOp(opCheck, 1, 0, 0, 0, 0), readOp(opMerge, 0, 1, 0, 0, 0),
			readOp(opCheck, 1, 0, 0, 0, 0), readOp(opUpdate, 1, 0, 1, 5, 9),
			readOp(opCheck, 0, 0, 0, 0, 0)),
		cat(readOp(opFill, 2, 0, 100, 0, 1), readOp(opCheck, 2, 0, 0, 0, 0),
			readOp(opReserve, 2, 0, 250, 0, 0), readOp(opCodec, 2, 0, 0, 0, 0),
			readOp(opClone, 1, 2, 0, 0, 0), readOp(opSet, 1, 0, 0, 1, 4),
			readOp(opCheck, 2, 0, 0, 0, 0)),
	}
}

// FuzzTableReads runs arbitrary sequences of writes, merges, adoptions,
// clones, reservations and codec round trips over four tables, with reads
// before and after each table's read index exists. After every check op and
// at the end, Get, Has and Best must agree bit for bit with a binary search of
// the backing's cell array on every in-span cell, and read the cells just
// outside the span as absent.
func FuzzTableReads(f *testing.F) {
	for _, seed := range readSeeds() {
		f.Add(seed)
	}
	f.Fuzz(runReadOps)
}

// maxReadOps caps an input's op count, so that an execution stays short
// however long an input the fuzzer grows.
const maxReadOps = 48

// runReadOps is FuzzTableReads' body.
func runReadOps(t *testing.T, in []byte) {
	in = in[:min(len(in), 6*maxReadOps)]
	var ts [4]*Table
	for i := range ts {
		ts[i] = New(0.5, 0.8)
	}
	for ; len(in) >= 6; in = in[6:] {
		i, j := int(in[1])%len(ts), int(in[2])%len(ts)
		x, y, z := in[3], in[4], in[5]
		s, a := State(x)%DenseSpan, Action(y)%DenseSpan
		v := float64(int8(z)) / 4
		if z == 0x7f {
			v = math.Copysign(0, -1)
		}
		switch in[0] % numReadOps {
		case opSet:
			ts[i].Set(s, a, v)
		case opUpdate:
			ts[i].Update(s, a, v, State(z)%DenseSpan)
		case opMerge:
			if i != j {
				Merge(ts[i], ts[j])
			}
		case opAdopt:
			if i != j && Identical([]*Table{ts[i], ts[j]}) {
				Adopt(ts[i], ts[j])
			}
		case opClone:
			ts[i] = ts[j].Clone()
		case opReserve:
			ts[i].Reserve(8 * int(x))
		case opCodec:
			var buf bytes.Buffer
			if err := ts[i].Encode(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			ts[i] = got
		case opFill:
			// 256 to 511 cells from cell 25x on, every first to third
			// cell: enough for the merges that alias cell arrays.
			stride := 1 + int(z)%3
			for k, ci := 0, 25*int(x); k < 256+int(y) && ci < DenseSpan*DenseSpan; k, ci = k+1, ci+stride {
				ts[i].Set(State(ci/DenseSpan), Action(ci%DenseSpan), float64(k%13)-6+v)
			}
		case opCheck:
			checkReads(t, ts[i])
		}
	}
	for _, tab := range ts {
		checkReads(t, tab)
	}
}

// checkReads holds Get, Has and Best on tab to a binary search of its
// backing on every cell of the span and one row and column past it. Best
// runs over every action in ascending and in descending order, so that ties
// resolve toward both ends.
func checkReads(t *testing.T, tab *Table) {
	t.Helper()
	oracle := func(s State, a Action) (float64, bool) {
		if tab.b == nil || !inSpan(s, a) {
			return 0, false
		}
		if i, ok := tab.b.find(uint16(int(s)*DenseSpan + int(a))); ok {
			return tab.b.vals[i], true
		}
		return 0, false
	}
	up, down := make([]Action, DenseSpan+1), make([]Action, DenseSpan+1)
	for a := range up {
		up[a], down[DenseSpan-a] = Action(a), Action(a)
	}
	for s := State(0); s <= DenseSpan; s++ {
		for a := Action(0); a <= DenseSpan; a++ {
			want, has := oracle(s, a)
			if got := tab.Get(s, a); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Get(%d, %d) = %v, binary search %v", s, a, got, want)
			}
			if got := tab.Has(s, a); got != has {
				t.Fatalf("Has(%d, %d) = %v, binary search %v", s, a, got, has)
			}
		}
		for _, cands := range [][]Action{up, down} {
			wa := cands[0]
			wq, _ := oracle(s, wa)
			for _, c := range cands[1:] {
				if q, _ := oracle(s, c); q > wq {
					wa, wq = c, q
				}
			}
			ga, gq, ok := tab.Best(s, cands)
			if !ok || ga != wa || math.Float64bits(gq) != math.Float64bits(wq) {
				t.Fatalf("Best(%d) = (%d, %v, %v), binary search (%d, %v)", s, ga, gq, ok, wa, wq)
			}
		}
	}
}

// TestLearningBuildsNoReadIndex: Equation 1's updates — fast path, inserting
// slow path, and MaxKnown behind both — never build a read index, so a
// learning phase allocates none that its next insert would drop; a read
// builds one, and the next insert drops it.
func TestLearningBuildsNoReadIndex(t *testing.T) {
	tab := New(0.5, 0.8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		tab.Update(State(rng.Intn(DenseSpan)), Action(rng.Intn(DenseSpan)), rng.Float64()-0.5, State(rng.Intn(DenseSpan)))
		if tab.b.reads.Load() != nil {
			t.Fatalf("update %d built a read index", i)
		}
	}
	tab.Get(0, 0)
	if tab.b.reads.Load() == nil {
		t.Fatal("Get built no read index")
	}
	ci := 0
	for tab.Has(State(ci/DenseSpan), Action(ci%DenseSpan)) {
		ci++
	}
	tab.Set(State(ci/DenseSpan), Action(ci%DenseSpan), 1)
	if tab.b.reads.Load() != nil {
		t.Fatal("an insert kept the read index")
	}
}

// TestBackingStaysInItsSizeClass: aggregation keeps tens of thousands of
// backings live, and the read index's pointer must not push the struct
// past the allocator's 80-byte size class, which would add 16 bytes to each.
func TestBackingStaysInItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(backing{}); n > 80 {
		t.Fatalf("backing is %d bytes, past the 80-byte size class", n)
	}
}
