package glap

import (
	"github.com/glap-sim/glap/internal/qlearn"
)

// This file is the single home of Algorithm 2's pairwise Q-table merge:
// MergeTables merges two live stores in place, averaging cells present on
// both sides and adopting cells present on one, so all PMs converge to
// identical Q-values. AggProtocol runs the same merge as two lanes, one per
// table.

// MergeTables runs one synchronous pairwise merge of Algorithm 2's UPDATE
// on two live stores: both endpoints end up with the unified tables.
// qlearn.Merge's comparison scan doubles as the equality check: past
// convergence (the common regime late in the aggregation phase) the pass
// writes nothing and leaves both tables' memory untouched. The two tables
// are merged independently, which is what AggProtocol's lanes rely on.
func MergeTables(p, q *NodeTables) {
	for lane := 0; lane < mergeLanes; lane++ {
		mergeLane(p, q, lane, false)
	}
}

// mergeLanes is the number of independent halves of MergeTables — φ^out and
// φ^in share no cell, backing or cache — and mergeLane runs one of them. With
// settled, the caller knows the two tables are qlearn.Identical, and the
// merge is the backing adoption it would come to.
const mergeLanes = 2

func mergeLane(p, q *NodeTables, lane int, settled bool) {
	pt, qt := p.Out, q.Out
	if lane == 1 {
		pt, qt = p.In, q.In
	}
	if settled {
		qlearn.Adopt(pt, qt)
	} else {
		qlearn.Merge(pt, qt)
	}
}
