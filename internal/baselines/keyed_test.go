package baselines

import (
	"sort"
	"testing"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/sim"
)

// TestKeyedSortMatchesSortSlice pins the tie order the keyed sorts rely on:
// for every length from 1 to 64 (pdqsort stops being an insertion sort past
// 12) and heavily tied keys, SortAscending and SortDescending must give
// exactly the permutation sort.Slice gives under the comparator the
// baselines used to pass it. If a toolchain ever makes the two sort variants
// differ, this fails before any fingerprint does.
func TestKeyedSortMatchesSortSlice(t *testing.T) {
	rng := sim.NewRNG(5)
	for n := 1; n <= 64; n++ {
		for trial := 0; trial < 20; trial++ {
			// Distinct VM handles stand in for a PM's list; only identity
			// matters to the permutation.
			vms := make([]*dc.VM, n)
			keys := make(map[*dc.VM]float64, n)
			distinct := 1 + rng.Intn(4)
			if trial%5 == 4 {
				distinct = n // all distinct now and then
			}
			for i := range vms {
				vms[i] = &dc.VM{ID: i}
				keys[vms[i]] = float64(rng.Intn(distinct)) / 4
			}
			for _, desc := range []bool{false, true} {
				want := append([]*dc.VM(nil), vms...)
				sort.Slice(want, func(i, j int) bool {
					if desc {
						return keys[want[i]] > keys[want[j]]
					}
					return keys[want[i]] < keys[want[j]]
				})
				got := make([]KeyedVM, n)
				for i, vm := range vms {
					got[i] = KeyedVM{Key: keys[vm], VM: vm}
				}
				if desc {
					SortDescending(got)
				} else {
					SortAscending(got)
				}
				for i := range want {
					if got[i].VM != want[i] {
						t.Fatalf("n %d trial %d desc %v: position %d holds VM %d, sort.Slice put VM %d there",
							n, trial, desc, i, got[i].VM.ID, want[i].ID)
					}
				}
			}
		}
	}
}
