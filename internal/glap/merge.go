package glap

import (
	"github.com/glap-sim/glap/internal/qlearn"
)

// This file is the single home of Algorithm 2's pairwise Q-table merge in
// its two transport forms. The cycle-driven AggProtocol merges two live
// stores in place (MergeTables); the message-passing AsyncAggProtocol
// serialises one endpoint's φ^io into a TableSnapshot and folds it into the
// other (SnapshotTables/MergeSnapshot). Both forms average cells present on
// both sides and adopt cells present on one, so all PMs converge to
// identical Q-values; the asyncagg equivalence test pins that a completed
// push/reply pair equals one synchronous exchange.

// MergeTables runs one synchronous pairwise merge of Algorithm 2's UPDATE
// on two live stores: both endpoints end up with the unified tables.
// qlearn.Merge's comparison scan doubles as the equality check: past
// convergence (the common regime late in the aggregation phase) the pass
// writes nothing and leaves both tables' memory untouched. The two tables
// are merged independently, which is what AggProtocol's lanes rely on.
func MergeTables(p, q *NodeTables) {
	for lane := 0; lane < mergeLanes; lane++ {
		mergeLane(p, q, lane)
	}
}

// mergeLanes is the number of independent halves of MergeTables — φ^out and
// φ^in share no cell, backing or cache — and mergeLane runs one of them.
const mergeLanes = 2

func mergeLane(p, q *NodeTables, lane int) {
	if lane == 0 {
		qlearn.Merge(p.Out, q.Out)
	} else {
		qlearn.Merge(p.In, q.In)
	}
}

// TableSnapshot carries one endpoint's φ^io cells — the wire form of the
// merge for transports that cannot touch the peer's store directly.
type TableSnapshot struct {
	Out, In map[qlearn.Key]float64
}

// SnapshotTables captures t's φ^io for transmission.
func SnapshotTables(t *NodeTables) TableSnapshot {
	return TableSnapshot{Out: t.Out.Flat(), In: t.In.Flat()}
}

// MergeSnapshot folds a received snapshot into dst per Algorithm 2's
// UPDATE: average cells present on both sides, adopt cells present only in
// the snapshot.
func MergeSnapshot(dst *NodeTables, snap TableSnapshot) {
	apply := func(tbl *qlearn.Table, cells map[qlearn.Key]float64) {
		for k, v := range cells {
			if tbl.Has(k.S, k.A) {
				tbl.Set(k.S, k.A, (tbl.Get(k.S, k.A)+v)/2)
			} else {
				tbl.Set(k.S, k.A, v)
			}
		}
	}
	apply(dst.Out, snap.Out)
	apply(dst.In, snap.In)
}
