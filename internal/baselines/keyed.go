// Package baselines holds what the baseline consolidation policies in its
// subpackages share on their round paths: a VM list ordered by one demand
// component, keyed once and sorted without reflection.
package baselines

import (
	"slices"

	"github.com/glap-sim/glap/internal/dc"
)

// KeyedVM is a VM with the demand component a sort orders it by, read once
// when the entry is built instead of on every comparison. The demand cannot
// change while a sort runs, so the key is the value a comparator calling
// CurAbs would have read.
type KeyedVM struct {
	Key float64
	VM  *dc.VM
}

// AppendKeyed appends one entry per VM in vms, in order, keyed by its current
// absolute demand on resource r. Callers pass a reused buffer (dst[:0]) so a
// round pass allocates nothing once it has grown to the largest list.
func AppendKeyed(dst []KeyedVM, vms []*dc.VM, r dc.Resource) []KeyedVM {
	dst = slices.Grow(dst, len(vms))
	for _, vm := range vms {
		dst = append(dst, KeyedVM{Key: vm.CurAbs()[r], VM: vm})
	}
	return dst
}

// SortAscending orders s by ascending key. sort.Slice and slices.SortFunc
// are the same generated pdqsort, so with a cmp that is negative exactly when
// a.Key < b.Key this is the permutation sort.Slice gives under that less,
// ties included (TestKeyedSortMatchesSortSlice).
func SortAscending(s []KeyedVM) { slices.SortFunc(s, ascending) }

// SortDescending orders s by descending key, the permutation sort.Slice
// gives under less a.Key > b.Key.
func SortDescending(s []KeyedVM) { slices.SortFunc(s, descending) }

// The comparators spell out both tests rather than calling cmp.Compare, which
// orders NaN first where the < and > they stand for never hold.
func ascending(a, b KeyedVM) int {
	switch {
	case a.Key < b.Key:
		return -1
	case a.Key > b.Key:
		return 1
	}
	return 0
}

func descending(a, b KeyedVM) int { return ascending(b, a) }
