package qlearn

import "sort"

// Sparse is the retired nested-map Q-table backing, kept as the reference
// implementation the dense Table is differentially tested and benchmarked
// against. It reproduces the pre-dense semantics exactly: hash lookups per
// cell, per-exchange map allocation on adopt, optimistic-zero reads.
//
// Production code must use Table; Sparse exists for the sparse-vs-dense
// differential tests and benchmarks.
type Sparse struct {
	// Alpha is the learning rate in (0, 1].
	Alpha float64
	// Gamma is the discount factor in [0, 1).
	Gamma float64

	q map[State]map[Action]float64
	n int
}

// NewSparse returns an empty sparse reference table.
func NewSparse(alpha, gamma float64) *Sparse {
	return &Sparse{Alpha: alpha, Gamma: gamma, q: make(map[State]map[Action]float64)}
}

// Len returns the number of (state, action) cells present.
func (t *Sparse) Len() int { return t.n }

// Get returns the Q-value for (s, a); missing cells read as 0.
func (t *Sparse) Get(s State, a Action) float64 { return t.q[s][a] }

// Has reports whether the cell (s, a) has been written.
func (t *Sparse) Has(s State, a Action) bool {
	row, ok := t.q[s]
	if !ok {
		return false
	}
	_, ok = row[a]
	return ok
}

// Set writes the Q-value for (s, a).
func (t *Sparse) Set(s State, a Action, v float64) {
	row, ok := t.q[s]
	if !ok {
		row = make(map[Action]float64)
		t.q[s] = row
	}
	if _, exists := row[a]; !exists {
		t.n++
	}
	row[a] = v
}

// MaxKnown returns the largest Q-value recorded for state s, or 0 when the
// state has never been visited.
func (t *Sparse) MaxKnown(s State) float64 {
	row, ok := t.q[s]
	if !ok || len(row) == 0 {
		return 0
	}
	first := true
	best := 0.0
	for _, v := range row {
		if first || v > best {
			best = v
			first = false
		}
	}
	return best
}

// Update applies Equation 1 for the transition (s, a) -> next with observed
// reward r, and returns the new Q-value.
func (t *Sparse) Update(s State, a Action, r float64, next State) float64 {
	old := t.Get(s, a)
	v := (1-t.Alpha)*old + t.Alpha*(r+t.Gamma*t.MaxKnown(next))
	t.Set(s, a, v)
	return v
}

// Keys returns all written cells in deterministic (state, action) order.
func (t *Sparse) Keys() []Key {
	keys := make([]Key, 0, t.n)
	for s, row := range t.q {
		for a := range row {
			keys = append(keys, Key{s, a})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].S != keys[j].S {
			return keys[i].S < keys[j].S
		}
		return keys[i].A < keys[j].A
	})
	return keys
}

// Flat returns the table contents as a map.
func (t *Sparse) Flat() map[Key]float64 {
	out := make(map[Key]float64, t.n)
	for s, row := range t.q {
		for a, v := range row {
			out[Key{s, a}] = v
		}
	}
	return out
}

// Clone returns a deep copy of the table.
func (t *Sparse) Clone() *Sparse {
	c := NewSparse(t.Alpha, t.Gamma)
	for s, row := range t.q {
		for a, v := range row {
			c.Set(s, a, v)
		}
	}
	return c
}

// UnifySparse merges two sparse tables in place per Algorithm 2's UPDATE,
// exactly as the retired map-backed Unify did.
func UnifySparse(p, q *Sparse) {
	for s, prow := range p.q {
		qrow, ok := q.q[s]
		if !ok {
			qrow = make(map[Action]float64, len(prow))
			q.q[s] = qrow
		}
		for a, pv := range prow {
			if qv, has := qrow[a]; has {
				avg := (pv + qv) / 2
				prow[a] = avg
				qrow[a] = avg
			} else {
				qrow[a] = pv
				q.n++
			}
		}
	}
	for s, qrow := range q.q {
		prow, ok := p.q[s]
		if !ok {
			prow = make(map[Action]float64, len(qrow))
			p.q[s] = prow
		}
		for a, qv := range qrow {
			if _, has := prow[a]; !has {
				prow[a] = qv
				p.n++
			}
		}
	}
}

// EqualSparse reports whether two sparse tables hold the same cells and
// values, exiting on the first difference.
func EqualSparse(p, q *Sparse) bool {
	if p.n != q.n {
		return false
	}
	for s, prow := range p.q {
		qrow, ok := q.q[s]
		if !ok {
			if len(prow) > 0 {
				return false
			}
			continue
		}
		for a, v := range prow {
			if qv, has := qrow[a]; !has || qv != v {
				return false
			}
		}
	}
	return true
}
