package glap

import (
	"bytes"
	"math"
	"testing"

	"github.com/glap-sim/glap/internal/qlearn"
)

// FuzzLoadTables feeds arbitrary bytes to LoadTables, the Q-store loader
// behind RestoreTables and the benchmark's restored-table fixture. It must
// never panic; every store it accepts the retired reflection loader
// (refLoadTables) must accept too, with bit-identical cells, Alpha, Gamma and
// Trained; every cell of an accepted store must lie inside the
// qlearn.DenseSpan×DenseSpan span and hold a finite value; and an accepted
// store must survive CheckpointTables → RestoreTables → CheckpointTables
// byte for byte. The seed corpus in testdata/fuzz/FuzzLoadTables covers the
// SaveTables output of a small pre-training, the same store truncated, a
// store with a cell outside the span, a store of the wrong version, and the
// documents SaveTables never writes that the retired loader accepted: the
// store followed by data, and case-variant, unknown and repeated keys.
func FuzzLoadTables(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		st, err := LoadTables(bytes.NewReader(in))
		if err != nil {
			return
		}
		ref, err := refLoadTables(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("LoadTables accepted what the retired loader refuses (%v)", err)
		}
		requireSameStore(t, st, ref)
		for _, tbl := range []*qlearn.Table{st.Out, st.In} {
			for _, k := range tbl.Keys() {
				if k.S >= qlearn.DenseSpan || k.A >= qlearn.DenseSpan {
					t.Fatalf("accepted cell %v outside the span", k)
				}
				if v := tbl.Get(k.S, k.A); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted non-finite cell %v = %g", k, v)
				}
			}
		}
		first, err := CheckpointTables(st)
		if err != nil {
			t.Fatalf("CheckpointTables: %v", err)
		}
		restored, err := RestoreTables(first)
		if err != nil {
			t.Fatalf("RestoreTables(%s): %v", first, err)
		}
		second, err := CheckpointTables(restored)
		if err != nil {
			t.Fatalf("CheckpointTables: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("checkpoint changed across a restore:\n%s\n%s", first, second)
		}
	})
}
