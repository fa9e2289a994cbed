package qlearn

import (
	"math/rand"
	"testing"
)

// fullTable builds a table covering the full 81x81 GLAP state-action space.
func fullTable(alpha, gamma float64) *Table {
	t := New(alpha, gamma)
	for s := State(0); s < 81; s++ {
		for a := Action(0); a < 81; a++ {
			t.Set(s, a, float64(s)+float64(a)/100)
		}
	}
	return t
}

// fullSparse builds the same table on the retired map backing.
func fullSparse(alpha, gamma float64) *Sparse {
	t := NewSparse(alpha, gamma)
	for s := State(0); s < 81; s++ {
		for a := Action(0); a < 81; a++ {
			t.Set(s, a, float64(s)+float64(a)/100)
		}
	}
	return t
}

// BenchmarkUpdate pins the Equation 1 hot path: on the dense backend a
// steady-state update (no growth) must be allocation-free — check allocs/op.
func BenchmarkUpdate(b *testing.B) {
	t := fullTable(0.5, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Update(State(i%81), Action(i%81), 5, State((i+1)%81))
	}
}

// BenchmarkUpdateSparse is the map-backed baseline for BenchmarkUpdate.
func BenchmarkUpdateSparse(b *testing.B) {
	t := fullSparse(0.5, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Update(State(i%81), Action(i%81), 5, State((i+1)%81))
	}
}

func BenchmarkBest(b *testing.B) {
	t := fullTable(0.5, 0.8)
	candidates := []Action{1, 5, 9, 13, 40, 77}
	for i := 0; i < b.N; i++ {
		_, _, _ = t.Best(State(i%81), candidates)
	}
}

func BenchmarkMaxKnown(b *testing.B) {
	t := fullTable(0.5, 0.8)
	for i := 0; i < b.N; i++ {
		_ = t.MaxKnown(State(i % 81))
	}
}

// BenchmarkUnify measures the aggregation-phase merge of two full GLAP-sized
// tables in steady state — the dominant cost of Algorithm 2. The tables are
// built once; after the first iteration every merge averages two equal full
// tables, exactly the post-convergence exchanges that dominate a long
// aggregation phase. Steady-state merges must be allocation-free.
func BenchmarkUnify(b *testing.B) {
	p := fullTable(0.5, 0.8)
	q := fullTable(0.5, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Unify(p, q)
	}
}

// BenchmarkUnifySparse is the retired map-backed baseline for
// BenchmarkUnify, on identical data.
func BenchmarkUnifySparse(b *testing.B) {
	p := fullSparse(0.5, 0.8)
	q := fullSparse(0.5, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UnifySparse(p, q)
	}
}

// disjointPair builds a merge pair with no shared cells (300 each, union
// 600) — the worst case for mergeTables: a full union build every time.
func disjointPair() (*Table, *Table) {
	p, q := New(0.5, 0.8), New(0.5, 0.8)
	for i := 0; i < 300; i++ {
		p.Set(State(i/81), Action(i%81), float64(i+1))
		j := i + 3000
		q.Set(State(j/81), Action(j%81), -float64(i+1))
	}
	return p, q
}

// benchMerge measures Merge(p, q), cycling q through qs, with the pair
// rewound to its pre-merge backings after every iteration, so each iteration
// exercises the same merge path instead of degenerating into shared-backing
// no-ops.
func benchMerge(b *testing.B, p *Table, qs ...*Table) {
	pb := p.b
	pb.ref.Add(1) // keep the masters alive across iterations
	qbs := make([]*backing, len(qs))
	for i, q := range qs {
		qbs[i] = q.b
		q.b.ref.Add(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, qb := qs[i%len(qs)], qbs[i%len(qs)]
		Merge(p, q)
		if p.b != pb {
			deref(p.b)
			pb.ref.Add(1)
			p.b = pb
		}
		if q.b != qb {
			deref(q.b)
			qb.ref.Add(1)
			q.b = qb
		}
	}
}

// BenchmarkMergeTables covers mergeTables' regimes:
//
//	aligned  — converged steady state: both cell sets alias one canonical
//	    interned array, values differ → the pointer-equality fast path
//	    (averageAligned into an aliasing backing, no union build).
//	aligned-mixed — the same cell set mid-convergence: values differ in a
//	    random five cells out of six, so whether a cell averages is
//	    unpredictable — the case the branch-free value kernels exist for.
//	shared   — the pair already shares one backing: pure pointer compare.
//	disjoint — no common cells: the general unionScan + unionBuild path.
func BenchmarkMergeTables(b *testing.B) {
	b.Run("aligned", func(b *testing.B) {
		p := alignedTable(b, 1)
		q := alignedTable(b, 2)
		if &p.b.idx[0] != &q.b.idx[0] {
			b.Fatal("setup did not produce aligned canonical backings")
		}
		benchMerge(b, p, q)
	})
	b.Run("aligned-mixed", func(b *testing.B) {
		p := alignedTable(b, 1)
		// 64 peers, each differing from p in its own random five cells out
		// of six (the measured mid-aggregation mix), so that no predictor
		// learns the pattern from one iteration to the next. Written
		// through the backing: Set would detach q onto a private copy of
		// the cell set and lose the alignment.
		rng := rand.New(rand.NewSource(3))
		qs := make([]*Table, 64)
		for k := range qs {
			q := alignedTable(b, 1)
			for i := range q.b.idx {
				if rng.Intn(6) != 0 {
					q.b.vals[i] *= 2
				}
			}
			if &p.b.idx[0] != &q.b.idx[0] {
				b.Fatal("setup did not produce aligned canonical backings")
			}
			qs[k] = q
		}
		benchMerge(b, p, qs...)
	})
	b.Run("shared", func(b *testing.B) {
		p, q := fastPathPair(1)
		Unify(p, q)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Merge(p, q)
		}
	})
	b.Run("disjoint", func(b *testing.B) {
		p, q := disjointPair()
		benchMerge(b, p, q)
	})
}

// BenchmarkEqual measures the cheap-exit pre-check AggProtocol runs before
// every merge, on equal full tables (the worst case: no early exit).
func BenchmarkEqual(b *testing.B) {
	p := fullTable(0.5, 0.8)
	q := fullTable(0.5, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Equal(p, q)
	}
}

// BenchmarkEqualSparse is the map-backed baseline for BenchmarkEqual.
func BenchmarkEqualSparse(b *testing.B) {
	p := fullSparse(0.5, 0.8)
	q := fullSparse(0.5, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EqualSparse(p, q)
	}
}

func BenchmarkClone(b *testing.B) {
	t := fullTable(0.5, 0.8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = t.Clone()
	}
}

func BenchmarkFlat(b *testing.B) {
	t := fullTable(0.5, 0.8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = t.Flat()
	}
}

// BenchmarkFillDense measures the dense vector fill that replaced Flat on
// the convergence-measurement path.
func BenchmarkFillDense(b *testing.B) {
	t := fullTable(0.5, 0.8)
	buf := make([]float64, 81*81)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.FillDense(buf)
	}
}
