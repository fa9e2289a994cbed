// Package qlearn implements the tabular Q-learning machinery GLAP builds
// on: Q-tables over discrete (state, action) pairs, the standard update rule
//
//	Q_{t+1}(s,a) = (1-α)·Q_t(s,a) + α·(R + γ·max_a' Q_t(s',a'))
//
// (Equation 1 of the paper), greedy action selection, and the gossip merge
// ("average when both know the pair, adopt when only one does") that
// Algorithm 2's aggregation phase applies.
//
// Tables are backed by a compact sorted cell array — parallel idx/vals
// slices holding only the written cells of the calibrated 81×81 span, ~10
// bytes per cell — shared copy-on-write between tables. A pairwise merge
// (Unify/Merge) leaves both endpoints referencing one backing, so during
// Algorithm 2's aggregation phase the per-PM tables of an N-node cluster
// collapse toward N/2 distinct backings instead of N dense arrays. This is
// what keeps hyperscale runs affordable: a dense 81×81 float64 array costs
// ~52 KiB per table (≈ 10.5 GB for two tables across 100 000 PMs), while a
// trained table holds only a few hundred cells and a fully aggregated one a
// few thousand. Writes to a shared backing copy first; freed backings are
// recycled through a small pool so the merge loop and post-merge writes stay
// allocation-free in steady state. A cell outside the calibrated span is
// a programming error: Set panics on one, and Decode refuses one.
package qlearn

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// State is a discrete environment state. GLAP packs a PM's calibrated
// (CPU level, MEM level) pair into one State.
type State uint32

// Action is a discrete action. GLAP packs a VM's calibrated level pair the
// same way.
type Action uint32

// Key identifies one Q-table cell.
type Key struct {
	S State
	A Action
}

// Precision names the storage width of a table's Q-values. Q-values are
// float64 only — Algorithm 2 averages real-valued tables and every
// fingerprinted run is exact float64 arithmetic — so F64 is the sole value.
// The type survives because callers that report a table's value width (the
// benchmark ledger's fixture check among them) name it through
// (*Table).Precision.
type Precision uint8

// F64 stores Q-values as float64.
const F64 Precision = 0

// DenseSpan is the per-dimension size of the calibrated cell space: GLAP's
// level pairs (9 levels × 2 resources = 81 packed states and actions).
// Every cell a table holds lies inside DenseSpan×DenseSpan: Set panics on
// any other, and Get and Has read such a cell as absent.
const DenseSpan = 81

// Table is a Q-table together with its learning parameters. The zero value
// is not ready; use New.
//
// Storage is a sorted cell array owned by a reference-counted backing that
// Unify/Merge share between the two endpoints of a gossip exchange. Reads
// see the shared cells directly; writes through a table whose backing is
// shared copy it first (copy-on-write), so tables remain value-independent
// observationally while converged gossip pairs occupy one allocation.
type Table struct {
	// Alpha is the learning rate in (0, 1].
	Alpha float64
	// Gamma is the discount factor in [0, 1).
	Gamma float64

	b *backing // nil until the first write
}

// backing is the shared cell store. idx holds the written cells as
// s*DenseSpan+a in ascending order — (state, action) lexicographic — and
// vals the matching Q-values.
type backing struct {
	// ref counts the Tables referencing this backing. It is atomic because
	// re-learning phases (InstallContinuous) run parallel training rounds on
	// tables that a previous aggregation phase left sharing backings, and
	// their first writes race to detach.
	ref atomic.Int32

	idx  []uint16
	vals []float64

	// idxShared marks idx as an alias of an immutable canonical cell-set
	// array (see canonicalIdx). Canonical arrays are built with cap==len,
	// so an insert's append reallocates a private copy automatically; the
	// flag exists so releases don't recycle a shared array into the pool
	// and footprint accounting doesn't count it once per aliasing backing.
	idxShared bool

	// idxHash caches the FNV-1a identity of idx (see fnvIdx); 0 means not yet
	// computed. The cache lets converged merges reuse cell-set identities
	// instead of rehashing thousands of cells per exchange: a union that
	// equals one input's cell set inherits that side's hash, and a backing
	// built against a canonical array carries the canonical hash from birth.
	// Atomic so that merges on different goroutines may share a backing: the
	// lazily computed hash is written back through cellSetHash.
	idxHash atomic.Uint64

	// rowMax caches MaxKnown per in-span state (NaN = stale; nil = no cache,
	// all rows stale). Equation 1 computes the max over the next state's row
	// on every training update; the cache turns that from a row scan into a
	// load for the overwhelmingly common case where updates raise values or
	// miss the row maximum. Set maintains it incrementally and invalidates a
	// row conservatively when its maximum may have dropped; merges drop the
	// cache wholesale, which is why it is a lazily allocated pointer rather
	// than an inline array: only training-phase backings (one per node) ever
	// refill it, while aggregation mints tens of thousands of merge-union
	// backings per round that would each carry 648 dead bytes. Only written
	// while the backing is unshared, so cache fills cannot race between
	// tables.
	rowMax *[DenseSpan]float64
}

var nan = math.NaN()

// minBackingCap is the smallest cell capacity a backing is created with.
const minBackingCap = 16

func (b *backing) len() int { return len(b.idx) }

func (b *backing) invalidateRowMax() {
	b.rowMax = nil
}

// newRowMax allocates an all-stale cache array.
func newRowMax() *[DenseSpan]float64 {
	rm := new([DenseSpan]float64)
	for i := range rm {
		rm[i] = nan
	}
	return rm
}

// find binary-searches idx for cell ci, returning the position and whether
// it is present. Absent cells report the insertion point. The halving step is
// arithmetic rather than a branch: Update looks up the cell of a freshly
// simulated transition, so successive targets are unrelated and a compare-
// and-jump mispredicts about every other level (EXPERIMENTS.md, "Does
// Algorithm 1 still pay for its branches?").
func (b *backing) find(ci uint16) (int, bool) {
	idx := b.idx
	lo, n := 0, len(idx)
	for n > 1 {
		half := n >> 1
		// Advance past the lower half when its last cell is below ci: the
		// difference is negative exactly then, and its sign fills the mask.
		lo += half & ((int(idx[lo+half-1]) - int(ci)) >> 63)
		n -= half
	}
	if n == 1 && idx[lo] < ci {
		lo++
	}
	return lo, lo < len(idx) && idx[lo] == ci
}

// backingPool recycles the building blocks of freed backings — the structs
// and their two cell arrays — when a merge collapses a pair onto one store
// or a copy-on-write detaches the last other holder. Aggregation gossip
// frees up to two backings and takes at most one per exchange, so a small
// pool keeps the merge loop and the posterior copy-on-write writes
// allocation-free in steady state without retaining more than a handful of
// arrays. The parts are pooled separately because a backing whose
// cell set was interned (idxShared) surrenders only its vals array; tying
// the parts together would slowly drain the pool of usable idx capacity.
var backingPool struct {
	mu    sync.Mutex
	nodes []*backing
	idxs  [][]uint16
	vals  [][]float64
}

// poolMax bounds each recycled free list.
const poolMax = 16

// poolTake removes and returns the smallest pooled array with capacity for
// need elements, or nil when none fits. Taking the smallest fit leaves the
// large arrays poolPut keeps for the large requests, instead of handing one
// to a small union that would hold it, mostly unused, for as long as it
// lives. Callers hold backingPool.mu.
func poolTake[T any](free *[][]T, need int) []T {
	f := *free
	best := -1
	for i, a := range f {
		if cap(a) >= need && (best < 0 || cap(a) < cap(f[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	a := f[best]
	last := len(f) - 1
	f[best] = f[last]
	f[last] = nil
	*free = f[:last]
	return a[:0]
}

// poolPut returns an array to a free list. A full list keeps its largest
// arrays: a released array larger than the smallest entry displaces it, any
// other is dropped. Aggregation needs this — the learning phase fills
// every list with arrays of a few dozen cells, the unions that follow ask for
// thousands, and a list that only ever appended stayed full of arrays no
// request fits while every union-sized release went to the collector. Callers
// hold backingPool.mu.
func poolPut[T any](free *[][]T, a []T) {
	f := *free
	if len(f) < poolMax {
		*free = append(f, a[:0])
		return
	}
	small := 0
	for i := range f {
		if cap(f[i]) < cap(f[small]) {
			small = i
		}
	}
	if cap(a) > cap(f[small]) {
		f[small] = a[:0]
	}
}

// poolPutIdx returns a private idx array to the pool; union merges use it
// when interning hands the backing a canonical array instead of the one it
// just built.
func poolPutIdx(a []uint16) {
	backingPool.mu.Lock()
	poolPut(&backingPool.idxs, a)
	backingPool.mu.Unlock()
}

// Canonical cell-set interning. Once aggregation gossip saturates, every
// push-pull union across the cluster rebuilds the same cell set — thousands
// of cells, identical element-for-element in every backing — and the idx
// arrays become the second-largest term of pretrain's peak heap after the
// values themselves. canonicalIdx interns one immutable copy of each
// recurring set and lets backings alias it (see backing.idxShared).
const (
	// canonMinCells keeps small tables out of the cache: interning only pays
	// once a cell set is large enough that aliasing displaces kilobytes, and
	// the zero-alloc merge tests rely on small backings cycling through the
	// pool untouched.
	canonMinCells = 256
	// canonMaxSets bounds the cache. A converged run needs one entry per
	// saturated union shape, so a handful suffice; on overflow the map is
	// dropped wholesale (aliasing backings keep their arrays alive).
	canonMaxSets = 64
	// canonSeenMax bounds the seen-once filter before a wholesale reset.
	canonSeenMax = 4096
)

var canonIdx struct {
	mu   sync.Mutex
	m    map[uint64][]uint16
	seen map[uint64]struct{}
}

// fnvIdx returns the FNV-1a identity of a cell-set array — the hash key of
// the canonical-interning cache, cached per backing in idxHash.
func fnvIdx(idx []uint16) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range idx {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// cellSetHash returns the backing's cell-set identity, computing and caching
// it on first use. The write-back is atomic: concurrent merges may fill the
// cache of one shared backing simultaneously, each storing the same
// deterministic value.
func (b *backing) cellSetHash() uint64 {
	if h := b.idxHash.Load(); h != 0 {
		return h
	}
	h := fnvIdx(b.idx)
	b.idxHash.Store(h)
	return h
}

// canonicalIdx returns an immutable interned copy of idx when the same cell
// set recurs, or (nil, false) for sets not worth sharing. h must be
// fnvIdx(idx) — callers pass their cached backing identity so converged
// merges stop rehashing the same saturated set on every exchange. A set is
// interned on its second sighting — the ramp phase of aggregation produces a
// stream of one-off unions that must not pollute the cache, while the
// converged phase repeats a handful of shapes endlessly. Interned arrays are
// built with cap==len so an insert's append reallocates a private copy, and
// their contents are never written after publication, so concurrent readers
// need no lock.
func canonicalIdx(idx []uint16, h uint64) ([]uint16, bool) {
	if len(idx) < canonMinCells {
		return nil, false
	}
	canonIdx.mu.Lock()
	defer canonIdx.mu.Unlock()
	if c, ok := canonIdx.m[h]; ok {
		if len(c) == len(idx) {
			same := true
			for i, v := range c {
				if v != idx[i] {
					same = false
					break
				}
			}
			if same {
				return c, true
			}
		}
		return nil, false // hash collision: keep the private array
	}
	if _, ok := canonIdx.seen[h]; !ok {
		if len(canonIdx.seen) >= canonSeenMax || canonIdx.seen == nil {
			canonIdx.seen = make(map[uint64]struct{}, 64)
		}
		canonIdx.seen[h] = struct{}{}
		return nil, false
	}
	if len(canonIdx.m) >= canonMaxSets {
		canonIdx.m = nil
	}
	if canonIdx.m == nil {
		canonIdx.m = make(map[uint64][]uint16, 8)
	}
	c := make([]uint16, len(idx))
	copy(c, idx)
	canonIdx.m[h] = c
	return c, true
}

// capRound picks the cell capacity for a backing that must hold need cells:
// a small constant headroom rounded to a 64-cell boundary, so successive
// merge unions (which grow by small steps) keep hitting pooled arrays.
// Large backings — saturated aggregation unions, where tens of thousands
// coexist and every slack cell is charged N-fold — round to a 16-cell
// boundary instead: by then unions repeat at one stable size, so pooled
// arrays still fit without the headroom.
func capRound(need int) int {
	if need < minBackingCap {
		return minBackingCap
	}
	if need >= 2048 {
		return (need + 15) &^ 15
	}
	return (need + 127) &^ 63
}

// newBacking allocates a fresh unshared backing with room for need cells.
func newBacking(need int) *backing {
	c := capRound(need)
	b := &backing{idx: make([]uint16, 0, c), vals: make([]float64, 0, c)}
	b.ref.Store(1)
	b.invalidateRowMax()
	return b
}

// acquireBacking returns an empty unshared backing with capacity for need
// cells, assembled from pooled parts when they fit.
func acquireBacking(need int) *backing {
	backingPool.mu.Lock()
	var b *backing
	if n := len(backingPool.nodes); n > 0 {
		b = backingPool.nodes[n-1]
		backingPool.nodes[n-1] = nil
		backingPool.nodes = backingPool.nodes[:n-1]
	}
	idx := poolTake(&backingPool.idxs, need)
	vals := poolTake(&backingPool.vals, need)
	backingPool.mu.Unlock()
	if b == nil {
		b = &backing{}
	}
	c := capRound(need)
	if idx == nil {
		idx = make([]uint16, 0, c)
	}
	if vals == nil {
		vals = make([]float64, 0, c)
	}
	b.idx, b.vals, b.idxShared = idx, vals, false
	b.idxHash.Store(0)
	b.ref.Store(1)
	b.invalidateRowMax()
	return b
}

// acquireAliasBacking returns an unshared backing whose idx aliases the given
// canonical (immutable, cap==len) cell-set array with identity h, assembling
// the struct and value array from pooled parts when they fit. It is the
// aligned merge fast path's destination: no idx array is consumed from the
// pool and no cells are copied — the union of two backings over one canonical
// set is that set.
func acquireAliasBacking(canon []uint16, h uint64) *backing {
	backingPool.mu.Lock()
	var b *backing
	if n := len(backingPool.nodes); n > 0 {
		b = backingPool.nodes[n-1]
		backingPool.nodes[n-1] = nil
		backingPool.nodes = backingPool.nodes[:n-1]
	}
	vals := poolTake(&backingPool.vals, len(canon))
	backingPool.mu.Unlock()
	if b == nil {
		b = &backing{}
	}
	if vals == nil {
		vals = make([]float64, 0, capRound(len(canon)))
	}
	b.idx, b.vals, b.idxShared = canon, vals, true
	b.idxHash.Store(h)
	b.ref.Store(1)
	b.invalidateRowMax()
	return b
}

// releaseBacking returns an unreferenced backing's parts to the pool. A
// canonical (shared) idx array is dropped, not pooled: other backings may
// still alias it, and pooled arrays get written through.
func releaseBacking(b *backing) {
	idx, vals := b.idx, b.vals
	shared := b.idxShared
	b.idx, b.vals, b.idxShared = nil, nil, false
	b.idxHash.Store(0)
	backingPool.mu.Lock()
	if len(backingPool.nodes) < poolMax {
		backingPool.nodes = append(backingPool.nodes, b)
	}
	if !shared && idx != nil {
		poolPut(&backingPool.idxs, idx)
	}
	if vals != nil {
		poolPut(&backingPool.vals, vals)
	}
	backingPool.mu.Unlock()
}

// deref drops one reference to b, recycling it when no table holds it any
// more.
func deref(b *backing) {
	if b.ref.Add(-1) == 0 {
		releaseBacking(b)
	}
}

// own returns the table's backing ready for writing: it allocates an empty
// one on first write and detaches (copies) a shared one, with room for
// extra additional cells.
func (t *Table) own(extra int) *backing {
	b := t.b
	if b == nil {
		b = newBacking(extra)
		t.b = b
		return b
	}
	if b.ref.Load() > 1 {
		nb := acquireBacking(len(b.idx) + extra)
		nb.idx = append(nb.idx, b.idx...)
		nb.idxHash.Store(b.idxHash.Load()) // same cell set, same identity
		nb.vals = append(nb.vals, b.vals...)
		if b.rowMax != nil {
			rm := *b.rowMax
			nb.rowMax = &rm
		}
		deref(b)
		t.b = nb
		return nb
	}
	return b
}

// New returns an empty table with the given learning rate and discount.
// The backing is allocated lazily on first write, so never-trained tables
// (PMs that end the learning phase without Q-values) stay cheap. The range
// checks are written in positive form so that NaN fails them.
func New(alpha, gamma float64) *Table {
	if !(alpha > 0 && alpha <= 1) {
		panic(fmt.Sprintf("qlearn: alpha %g out of (0,1]", alpha))
	}
	if !(gamma >= 0 && gamma < 1) {
		panic(fmt.Sprintf("qlearn: gamma %g out of [0,1)", gamma))
	}
	return &Table{Alpha: alpha, Gamma: gamma}
}

// Precision returns the table's value-storage width: always F64.
func (t *Table) Precision() Precision { return F64 }

// Len returns the number of (state, action) cells present.
func (t *Table) Len() int {
	if t.b == nil {
		return 0
	}
	return t.b.len()
}

// inSpan reports whether (s, a) lies in the DenseSpan×DenseSpan cell space.
// Every lookup checks it first: the packed index of an out-of-span cell would
// alias a real one.
func inSpan(s State, a Action) bool {
	return int(s) < DenseSpan && int(a) < DenseSpan
}

// Get returns the Q-value for (s, a); missing cells read as 0, matching the
// optimistic-zero initialisation the paper's reward design assumes. A cell
// outside the span is never present.
func (t *Table) Get(s State, a Action) float64 {
	b := t.b
	if b == nil || !inSpan(s, a) {
		return 0
	}
	if i, ok := b.find(uint16(int(s)*DenseSpan + int(a))); ok {
		return b.vals[i]
	}
	return 0
}

// Has reports whether the cell (s, a) has been written.
func (t *Table) Has(s State, a Action) bool {
	b := t.b
	if b == nil || !inSpan(s, a) {
		return false
	}
	_, ok := b.find(uint16(int(s)*DenseSpan + int(a)))
	return ok
}

// Set writes the Q-value for (s, a), which must lie inside the
// DenseSpan×DenseSpan span. Writing to a shared backing detaches a private
// copy first; writes to an owned backing with spare capacity — the training
// steady state — do not allocate.
func (t *Table) Set(s State, a Action, v float64) {
	if !inSpan(s, a) {
		panic(fmt.Sprintf("qlearn: cell (%d, %d) outside the %d×%d span", s, a, DenseSpan, DenseSpan))
	}
	b := t.own(1)
	ci := uint16(int(s)*DenseSpan + int(a))
	i, ok := b.find(ci)
	old := 0.0
	if ok {
		old = b.vals[i]
	} else {
		// A canonical (shared) idx array has cap==len, so this append
		// reallocates a private copy before the in-place shift below.
		b.idx = append(b.idx, 0)
		copy(b.idx[i+1:], b.idx[i:])
		b.idx[i] = ci
		b.idxShared = false
		b.idxHash.Store(0) // cell set changed; identity stale
		b.vals = append(b.vals, 0)
		copy(b.vals[i+1:], b.vals[i:])
	}
	if cache := b.rowMax; cache != nil {
		if rm := cache[s]; rm == rm { // cache valid (not NaN)
			switch {
			case v > rm:
				cache[s] = v
			case v < rm && old == rm:
				// The overwritten cell may have been the row maximum (or an
				// absent cell reading as the cached 0 of an empty row);
				// recompute lazily on the next MaxKnown.
				cache[s] = nan
			}
		}
	}
	b.vals[i] = v
}

// Reserve grows the table's backing to hold at least the given number of
// cells without further allocation, detaching from a shared backing if needed.
// Steady-state-sensitive callers (and the zero-alloc training tests) use it
// to pre-size tables past their high-water cell count.
func (t *Table) Reserve(cells int) {
	b := t.own(0)
	if !b.idxShared && cap(b.idx) >= cells {
		return
	}
	if cells < len(b.idx) {
		cells = len(b.idx)
	}
	idx := make([]uint16, len(b.idx), cells)
	copy(idx, b.idx)
	vals := make([]float64, len(b.vals), cells)
	copy(vals, b.vals)
	b.idx, b.vals = idx, vals
	b.idxShared = false
}

// rowScanMax returns the maximum over the present cells of row s,
// 0 when the row has none (the bootstrap value for unseen states).
func (b *backing) rowScanMax(s int) float64 {
	lo, _ := b.find(uint16(s * DenseSpan))
	hi := s*DenseSpan + DenseSpan
	best, found := 0.0, false
	for i := lo; i < len(b.idx) && int(b.idx[i]) < hi; i++ {
		if v := b.vals[i]; !found || v > best {
			best, found = v, true
		}
	}
	return best
}

// MaxKnown returns the largest Q-value recorded for state s, or 0 when the
// state has never been visited (the bootstrap value for unseen states).
// This sits inside Equation 1's hot path (one call per training update);
// the per-state cache reduces it to a load once the row has been scanned.
// The cache is only filled while the backing is unshared, so parallel
// training rounds on post-aggregation tables stay race-free.
func (t *Table) MaxKnown(s State) float64 {
	b := t.b
	if b == nil {
		return 0
	}
	if int(s) >= DenseSpan {
		return 0
	}
	if cache := b.rowMax; cache != nil {
		if rm := cache[s]; rm == rm {
			return rm
		}
	}
	best := b.rowScanMax(int(s))
	if b.ref.Load() == 1 {
		if b.rowMax == nil {
			b.rowMax = newRowMax()
		}
		b.rowMax[s] = best
	}
	return best
}

// Update applies Equation 1 for the transition (s, a) -> next with observed
// reward r, and returns the new Q-value. In steady state (owned backing with
// capacity for the touched cells) it performs no allocation.
func (t *Table) Update(s State, a Action, r float64, next State) float64 {
	// Fast path: an in-span cell already present on an unshared backing —
	// the common case from the second visit of a transition onward. One
	// binary search serves both the old-value read and the store; the slow
	// path below would run the same search three times (Get, Set, and the
	// row-start probe inside an uncached MaxKnown).
	if b := t.b; b != nil && inSpan(s, a) && b.ref.Load() == 1 {
		if i, ok := b.find(uint16(int(s)*DenseSpan + int(a))); ok {
			old := b.vals[i]
			v := (1-t.Alpha)*old + t.Alpha*(r+t.Gamma*t.MaxKnown(next))
			if cache := b.rowMax; cache != nil {
				if rm := cache[s]; rm == rm { // cache valid (not NaN)
					switch {
					case v > rm:
						cache[s] = v
					case v < rm && old == rm:
						cache[s] = nan
					}
				}
			}
			b.vals[i] = v
			return v
		}
	}
	old := t.Get(s, a)
	v := (1-t.Alpha)*old + t.Alpha*(r+t.Gamma*t.MaxKnown(next))
	t.Set(s, a, v)
	return v
}

// Best returns the action among candidates with the highest Q-value in
// state s, together with that value. Unwritten cells count as 0. ok is false
// when candidates is empty. Ties break toward the action listed first, which
// keeps selection deterministic for a fixed candidate order.
func (t *Table) Best(s State, candidates []Action) (a Action, q float64, ok bool) {
	if len(candidates) == 0 {
		return 0, 0, false
	}
	a, q = candidates[0], t.Get(s, candidates[0])
	for _, c := range candidates[1:] {
		if v := t.Get(s, c); v > q {
			a, q = c, v
		}
	}
	return a, q, true
}

// cellKey converts a cell-array index entry to its Key.
func cellKey(ci uint16) Key {
	return Key{State(ci / DenseSpan), Action(ci % DenseSpan)}
}

// Keys returns all written cells in (state, action) order: one walk of the
// sorted cell array.
func (t *Table) Keys() []Key {
	if t.b == nil {
		return nil
	}
	keys := make([]Key, len(t.b.idx))
	for i, ci := range t.b.idx {
		keys[i] = cellKey(ci)
	}
	return keys
}

// Flat returns the table contents as a sparse map. It is retained as a
// compatibility adapter for the codec, snapshots and tests; hot paths use
// the backing directly (see FillDense).
func (t *Table) Flat() map[Key]float64 {
	out := make(map[Key]float64, t.Len())
	if t.b == nil {
		return out
	}
	for i, ci := range t.b.idx {
		out[cellKey(ci)] = t.b.vals[i]
	}
	return out
}

// FillDense writes the table's cells into dst laid out as
// DenseSpan×DenseSpan (dst[s*DenseSpan+a], unwritten cells 0) and returns
// dst. The caller supplies dst so per-sample convergence measurement can
// reuse one buffer instead of building a map per node per round.
func (t *Table) FillDense(dst []float64) []float64 {
	const n = DenseSpan * DenseSpan
	if len(dst) < n {
		panic(fmt.Sprintf("qlearn: FillDense dst len %d < %d", len(dst), n))
	}
	clear(dst[:n])
	if t.b == nil {
		return dst
	}
	for i, ci := range t.b.idx {
		dst[ci] = t.b.vals[i]
	}
	return dst
}

// Clone returns a deep copy of the table with its own unshared backing.
func (t *Table) Clone() *Table {
	c := &Table{Alpha: t.Alpha, Gamma: t.Gamma}
	if t.b != nil {
		b := t.b
		nb := newBacking(len(b.idx))
		nb.idx = append(nb.idx, b.idx...)
		nb.idxHash.Store(b.idxHash.Load())
		nb.vals = append(nb.vals, b.vals...)
		if b.rowMax != nil {
			rm := *b.rowMax
			nb.rowMax = &rm
		}
		c.b = nb
	}
	return c
}

// Footprint reports the physical memory behind a set of tables: the number
// of distinct backings (a backing shared by several tables counts once),
// the bytes they reserve — including append slack — and,
// separately, the bytes of the value arrays alone (valueBytes ⊆ bytes; 8
// per reserved cell). The scale benchmark reports the value share on its
// own; the cells figure is the logical total (shared backings still counted
// once).
func Footprint(tables []*Table) (backings int, bytes, valueBytes int64, cells int) {
	seen := make(map[*backing]struct{}, len(tables))
	for _, t := range tables {
		b := t.b
		if b == nil {
			continue
		}
		if _, ok := seen[b]; ok {
			continue
		}
		seen[b] = struct{}{}
		backings++
		cells += b.len()
		if !b.idxShared {
			// A canonical cell-set array is aliased by many backings; it is
			// excluded here rather than charged to each aliaser (at most
			// canonMaxSets such arrays exist process-wide).
			bytes += int64(cap(b.idx)) * 2
		}
		valueBytes += int64(cap(b.vals)) * 8
		if b.rowMax != nil {
			bytes += int64(len(b.rowMax)) * 8
		}
	}
	return backings, bytes + valueBytes, valueBytes, cells
}

// Unify merges two tables in place per Algorithm 2's UPDATE: cells present
// in both become the average of the two values in both tables; cells present
// in only one are copied to the other. After Unify the tables are equal —
// and share one backing, which is what bounds aggregation-phase memory at
// cluster scale (see the package comment).
func Unify(p, q *Table) {
	mergeTables(p, q)
}

// Merge is Unify fused with the change check: the same post-merge state,
// plus a report of whether any cell changed. Callers that previously ran
// Equal-then-Unify paid two nearly-full scans per exchange once gossip
// neared convergence; Merge's scan doubles as the equality check, and a
// no-op merge of already-equal tables just collapses them onto one backing.
func Merge(p, q *Table) bool {
	return mergeTables(p, q)
}

// MergeStats is a snapshot of mergeTables' outcome counters since the last
// ResetMergeStats. The first four are the fast paths — exchanges that skipped
// some or all of the general find/unionScan/unionBuild machinery:
//
//	SharedBacking — the pair already shared one backing: pure pointer
//	    compare, nothing scanned.
//	AlignedIdx    — both cell sets alias one canonical interned array
//	    (the converged steady state): set comparison is a pointer compare
//	    and the merge, when needed, averages the aligned value arrays
//	    without rebuilding an index.
//	EqualCollapse — identical content detected by the comparison scan; the
//	    pair collapsed onto one backing with no value writes.
//	AdoptedIdx    — equal cell sets with an unshared side: averages written
//	    in place, the other table adopted the backing (no union build).
//
// Unions counts the residual general path (full union build), and Merges the
// total mergeTables calls; Merges − SharedBacking − AlignedIdx −
// EqualCollapse − AdoptedIdx − Unions is the number of one-sided adoptions
// (one endpoint had no backing at all). AlignedIdx pairs that turn out
// content-equal (or set-equal with an owner) are counted once, under
// AlignedIdx, since the alignment is what made the cheap outcome possible.
type MergeStats struct {
	Merges        uint64
	SharedBacking uint64
	AlignedIdx    uint64
	EqualCollapse uint64
	AdoptedIdx    uint64
	Unions        uint64
}

// FastHits returns the total number of exchanges resolved by a fast path.
func (m MergeStats) FastHits() uint64 {
	return m.SharedBacking + m.AlignedIdx + m.EqualCollapse + m.AdoptedIdx
}

var mergeStats struct {
	merges, sharedBacking, alignedIdx, equalCollapse, adoptedIdx, unions atomic.Uint64
}

// ReadMergeStats returns the counters accumulated since the last reset.
func ReadMergeStats() MergeStats {
	return MergeStats{
		Merges:        mergeStats.merges.Load(),
		SharedBacking: mergeStats.sharedBacking.Load(),
		AlignedIdx:    mergeStats.alignedIdx.Load(),
		EqualCollapse: mergeStats.equalCollapse.Load(),
		AdoptedIdx:    mergeStats.adoptedIdx.Load(),
		Unions:        mergeStats.unions.Load(),
	}
}

// ResetMergeStats zeroes the merge outcome counters. Benchmarks reset before
// a measured phase so per-run reports are not contaminated by earlier runs in
// the same process.
func ResetMergeStats() {
	mergeStats.merges.Store(0)
	mergeStats.sharedBacking.Store(0)
	mergeStats.alignedIdx.Store(0)
	mergeStats.equalCollapse.Store(0)
	mergeStats.adoptedIdx.Store(0)
	mergeStats.unions.Store(0)
}

// unionScan is mergeTables' comparison pass over two backings' cell arrays:
// union size of the two sorted cell sets plus value equality on the shared
// cells. Values are compared only up to the first difference — one settles
// valsEqual, and mid-convergence, when most cells differ in their last bits,
// the rest of the scan is index-only.
func unionScan(pi, qi []uint16, pvals, qvals []float64) (union int, valsEqual bool) {
	i, j := 0, 0
	valsEqual = true
	if len(pi) == len(qi) {
		// Equal-length fast loop: mid-convergence merges mostly compare
		// identical cell sets that are not (yet) pointer-aligned. Walk the
		// common elementwise prefix with two predictable compares per cell;
		// the general merge walk below resumes at the first set mismatch.
		for i < len(pi) && pi[i] == qi[i] {
			if valsEqual && pvals[i] != qvals[i] {
				valsEqual = false
			}
			i++
		}
		union, j = i, i
		if i == len(pi) {
			return union, valsEqual
		}
	}
	for i < len(pi) && j < len(qi) {
		switch {
		case pi[i] == qi[j]:
			if valsEqual && pvals[i] != qvals[j] {
				valsEqual = false
			}
			i++
			j++
		case pi[i] < qi[j]:
			i++
		default:
			j++
		}
		union++
	}
	union += len(pi) - i + len(qi) - j
	return union, valsEqual
}

// merged returns Algorithm 2's value for a cell present on both sides: a
// verbatim when a == b, otherwise the midpoint. Mid-convergence the two
// cases alternate cell by cell with no pattern a branch predictor can learn,
// so the midpoint is computed unconditionally and a is selected over it in
// the integer domain: a == b exactly when the bit patterns agree or both are
// zeros of either sign. Keeping a is what preserves -0 against +0 and
// |a| > MaxFloat64/2, where a+a overflows. The two ifs each compile to a
// conditional move; joined by || they compile to a branch.
func merged(a, b float64) float64 {
	ab, bb := math.Float64bits(a), math.Float64bits(b)
	mb := math.Float64bits((a + b) / 2)
	if ab == bb {
		mb = ab
	}
	if (ab|bb)<<1 == 0 {
		mb = ab
	}
	return math.Float64frombits(mb)
}

// averageInto folds o's values into d's for equal cell sets.
func averageInto(dvals, ovals []float64) {
	ovals = ovals[:len(dvals)]
	for i := range dvals {
		dvals[i] = merged(dvals[i], ovals[i])
	}
}

// valsEqualAligned reports cell-wise value equality of two aligned value
// arrays — the comparison scan of the aligned fast path, with the same !=
// semantics as unionScan's shared-cell compare.
func valsEqualAligned(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// averageAligned writes the merge of two aligned value arrays into dst —
// bit-identical to what unionBuild produces for a cell present on both sides.
func averageAligned(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = merged(a[i], b[i])
	}
}

// mergeValsInto writes the merged values of a union whose cell set equals pi
// (qi ⊆ pi as sets) into dvals: one walk of pi with a match cursor over qi,
// averaging shared cells exactly as unionBuild does. It is the value pass of
// the superset-alias fast path, which skips rebuilding an idx array the
// union provably equals.
func mergeValsInto(dvals []float64, pi, qi []uint16, pvals, qvals []float64) {
	j := 0
	for i := range pi {
		v := pvals[i]
		if j < len(qi) && qi[j] == pi[i] {
			v = merged(v, qvals[j])
			j++
		}
		dvals[i] = v
	}
}

// unionBuild writes the merged union of (pi, pvals) and (qi, qvals) into
// the pre-sized didx/dvals, averaging shared cells.
func unionBuild(didx []uint16, dvals []float64, pi, qi []uint16, pvals, qvals []float64) {
	i, j := 0, 0
	for k := range didx {
		switch {
		case i < len(pi) && j < len(qi) && pi[i] == qi[j]:
			didx[k], dvals[k] = pi[i], merged(pvals[i], qvals[j])
			i++
			j++
		case j >= len(qi) || (i < len(pi) && pi[i] < qi[j]):
			didx[k], dvals[k] = pi[i], pvals[i]
			i++
		default:
			didx[k], dvals[k] = qi[j], qvals[j]
			j++
		}
	}
}

// mergeTables implements Unify/Merge. It returns whether any cell of either
// table changed (equivalently: whether the tables differed).
//
// Ownership outcomes, chosen so every merge leaves the pair sharing one
// backing (a push-pull merge makes both sides identical, so anything else
// duplicates converging state N-fold across a gossiping cluster) while the
// recycling pool keeps the steady-state merge loop allocation-free:
//   - already sharing (or both empty): no-op.
//   - equal content: the pair collapses onto one backing, freeing the other.
//   - equal cell sets, at least one side unshared: averages are written into
//     an unshared backing, which the other table adopts; a displaced owned
//     backing returns to the pool.
//   - differing cell sets (or both backings shared): the union is built into
//     a recycled or fresh backing that both tables adopt.
//
// Fast paths (see MergeStats) carve out the converged steady state of
// aggregation gossip: a pair already sharing one backing is a pointer
// compare; a pair whose idx arrays alias the same canonical interned cell
// set skips the set comparison entirely (pointer equality of immutable
// arrays is set equality) and, when a merge is still needed, averages the
// aligned value arrays into a backing that aliases the same canonical set —
// no find, no unionScan, no unionBuild; a union that provably equals one
// side's canonical cell set aliases that array instead of rebuilding it and
// inherits its cached FNV identity instead of rehashing.
func mergeTables(p, q *Table) bool {
	mergeStats.merges.Add(1)
	pb, qb := p.b, q.b
	if pb == qb {
		mergeStats.sharedBacking.Add(1)
		return false // same backing (or both nil): already equal
	}
	if pb == nil {
		p.b = qb
		qb.ref.Add(1)
		return qb.len() > 0
	}
	if qb == nil {
		q.b = pb
		pb.ref.Add(1)
		return pb.len() > 0
	}

	// One comparison scan: union size, set equality, value equality. When
	// both cell sets alias one immutable canonical array, the scan collapses
	// to a value-equality walk: pointer equality is set equality. (idxShared
	// on both sides guarantees immutability — pointer-equal idx slices alone
	// would not, since an owned backing may overwrite its array in place.)
	pi, qi := pb.idx, qb.idx
	aligned := len(pi) == len(qi) && len(pi) > 0 &&
		&pi[0] == &qi[0] && pb.idxShared && qb.idxShared
	var union int
	var valsEqual bool
	switch {
	case aligned:
		mergeStats.alignedIdx.Add(1)
		union = len(pi)
		valsEqual = valsEqualAligned(pb.vals, qb.vals)
	default:
		union, valsEqual = unionScan(pi, qi, pb.vals, qb.vals)
	}
	setsEqual := union == len(pi) && union == len(qi)

	if setsEqual && valsEqual {
		// Identical content: collapse the pair onto p's backing.
		if !aligned {
			mergeStats.equalCollapse.Add(1)
		}
		q.b = pb
		pb.ref.Add(1)
		deref(qb)
		return false
	}

	pOwned := pb.ref.Load() == 1
	qOwned := qb.ref.Load() == 1

	if setsEqual && (pOwned || qOwned) {
		// Write averages into an unshared side and have the other table
		// adopt it, so the pair leaves the merge sharing one backing.
		// (An earlier revision dual-wrote averages into both owned
		// backings; that kept every node's table privately backed
		// through the whole aggregation phase — both sides of a
		// push-pull merge hold identical content afterwards, and at
		// cluster scale the N-fold duplication was the dominant term of
		// pretrain's peak heap.)
		if !aligned {
			mergeStats.adoptedIdx.Add(1)
		}
		d, o, other := pb, qb, q
		if !pOwned {
			d, o, other = qb, pb, p
		}
		averageInto(d.vals, o.vals)
		d.invalidateRowMax()
		other.b = d
		d.ref.Add(1)
		deref(o)
		return true
	}

	// Differing cell sets or both backings shared: build the union into a
	// destination both tables adopt. Three builders, cheapest applicable
	// wins:
	//   - aligned: the union IS the canonical set both sides alias; take a
	//     values-only backing aliasing it and average the aligned arrays.
	//   - superset alias: the union equals one side's canonical cell set
	//     (the other is a subset); alias that array and merge values with a
	//     match cursor — no idx rebuild, hash inherited.
	//   - general: full unionBuild into a recycled array, then canonical
	//     interning (converged unions rebuild the same saturated cell set on
	//     every exchange; aliasing one interned copy reclaims 2 bytes/cell
	//     per backing, cluster-wide) using the sides' cached FNV identities
	//     when the union coincides with either cell set.
	var d *backing
	switch {
	case aligned:
		d = acquireAliasBacking(pi, pb.cellSetHash())
		d.vals = d.vals[:union]
		averageAligned(d.vals, pb.vals, qb.vals)
	case union == len(pi) && pb.idxShared:
		mergeStats.unions.Add(1)
		d = acquireAliasBacking(pi, pb.cellSetHash())
		d.vals = d.vals[:union]
		mergeValsInto(d.vals, pi, qi, pb.vals, qb.vals)
	case union == len(qi) && qb.idxShared:
		mergeStats.unions.Add(1)
		d = acquireAliasBacking(qi, qb.cellSetHash())
		d.vals = d.vals[:union]
		mergeValsInto(d.vals, qi, pi, qb.vals, pb.vals)
	default:
		mergeStats.unions.Add(1)
		d = acquireBacking(union)
		d.idx, d.vals = d.idx[:union], d.vals[:union]
		unionBuild(d.idx, d.vals, pi, qi, pb.vals, qb.vals)
		if len(d.idx) >= canonMinCells {
			var h uint64
			switch {
			case union == len(pi):
				h = pb.cellSetHash()
			case union == len(qi):
				h = qb.cellSetHash()
			default:
				h = fnvIdx(d.idx)
			}
			d.idxHash.Store(h)
			if c, ok := canonicalIdx(d.idx, h); ok {
				old := d.idx
				d.idx, d.idxShared = c, true
				poolPutIdx(old)
			}
		}
	}
	deref(pb)
	deref(qb)
	p.b, q.b = d, d
	d.ref.Store(2)
	return true
}

// Equal reports whether two tables hold exactly the same cells and values.
// A pair sharing one backing — the invariable case once aggregation gossip
// has merged them — is equal by identity; otherwise two slice scans.
func Equal(p, q *Table) bool {
	if p.b == q.b {
		return true
	}
	pi, pv := p.b.cells()
	qi, qv := q.b.cells()
	return slices.Equal(pi, qi) && slices.Equal(pv, qv)
}

// cells returns the backing's cell and value arrays; a nil backing has none.
func (b *backing) cells() ([]uint16, []float64) {
	if b == nil {
		return nil, nil
	}
	return b.idx, b.vals
}

// Identical reports whether every table in ts holds exactly the cells of
// ts[0], each with a value of the same bits — exactly the tables Merge would
// settle by sharing one backing without writing a value (see Adopt). It is
// stricter than Equal: +0 and −0 differ, because Merge would overwrite one
// with the other, and so do two NaNs, because Merge averages them. A table
// sharing ts[0]'s backing costs a pointer compare, every other distinct
// backing is scanned at most once, and the scan stops at the first
// difference.
func Identical(ts []*Table) bool {
	if len(ts) == 0 {
		return true
	}
	ref := ts[0].b
	var seen map[*backing]struct{}
	for _, t := range ts[1:] {
		b := t.b
		if b == ref {
			continue
		}
		if _, ok := seen[b]; ok {
			continue
		}
		if !identicalBackings(ref, b) {
			return false
		}
		if seen == nil {
			seen = make(map[*backing]struct{})
		}
		seen[b] = struct{}{}
	}
	return true
}

// identicalBackings is Identical for two distinct backings, either possibly
// nil.
func identicalBackings(a, b *backing) bool {
	ai, av := a.cells()
	bi, bv := b.cells()
	if len(ai) != len(bi) {
		return false
	}
	if len(ai) > 0 && &ai[0] != &bi[0] && !slices.Equal(ai, bi) {
		return false
	}
	return sameValues(av, bv)
}

// sameValues reports whether two value arrays agree cell by cell under
// sameValue.
func sameValues(a, b []float64) bool {
	b = b[:len(a)]
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameValue reports whether x and y are the same non-NaN value with the same
// sign — for floats, the same bits.
func sameValue(x, y float64) bool {
	return x == y && math.Signbit(x) == math.Signbit(y)
}

// Adopt has q share p's backing: the whole effect of Merge on two Identical
// tables, without the comparison scan that finds it out. The tables must be
// Identical; Adopt does not check, and MergeStats does not count it.
func Adopt(p, q *Table) {
	pb, qb := p.b, q.b
	switch {
	case pb == qb:
	case pb == nil:
		p.b = qb
		qb.ref.Add(1)
	case qb == nil:
		q.b = pb
		pb.ref.Add(1)
	default:
		q.b = pb
		pb.ref.Add(1)
		deref(qb)
	}
}
