package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzLoadCSV feeds arbitrary bytes to the CSV trace loader. LoadCSV must
// never panic; every set it accepts must have dense VM ids, the same round
// count for every VM and only finite samples in [0, 1]; and WriteCSV followed
// by LoadCSV must return the accepted set to the %.6f precision WriteCSV
// writes. The seed corpus in testdata/fuzz/FuzzLoadCSV covers a header plus
// data, a header with many fields, nan and +Inf samples, a ragged row, a
// duplicate round, sparse VM ids and an empty file.
func FuzzLoadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		set, err := LoadCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		if set.NumVMs() < 1 || set.Rounds() < 1 {
			t.Fatalf("accepted a set of %d VMs × %d rounds", set.NumVMs(), set.Rounds())
		}
		for vm := 0; vm < set.NumVMs(); vm++ {
			ser := set.Series(vm)
			if len(ser) != set.Rounds() {
				t.Fatalf("vm %d has %d rounds, the set %d", vm, len(ser), set.Rounds())
			}
			for r, s := range ser {
				if !validUtil(s.CPU) || !validUtil(s.Mem) { // NaN and ±Inf fail too
					t.Fatalf("vm %d round %d: accepted sample %+v", vm, r, s)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, set); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		again, err := LoadCSV(&buf)
		if err != nil {
			t.Fatalf("re-loading what WriteCSV wrote: %v", err)
		}
		if again.NumVMs() != set.NumVMs() || again.Rounds() != set.Rounds() {
			t.Fatalf("round trip: %d VMs × %d rounds, want %d × %d", again.NumVMs(), again.Rounds(), set.NumVMs(), set.Rounds())
		}
		const prec = 5e-7 + 1e-12 // half a unit in the sixth decimal, plus parsing slack
		for vm := 0; vm < set.NumVMs(); vm++ {
			for r := 0; r < set.Rounds(); r++ {
				a, b := set.At(vm, r), again.At(vm, r)
				if math.Abs(a.CPU-b.CPU) > prec || math.Abs(a.Mem-b.Mem) > prec {
					t.Fatalf("round trip vm %d round %d: %+v, want %+v", vm, r, b, a)
				}
			}
		}
	})
}
