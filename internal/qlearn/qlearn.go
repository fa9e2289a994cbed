// Package qlearn implements the tabular Q-learning machinery GLAP builds
// on: Q-tables over discrete (state, action) pairs, the standard update rule
//
//	Q_{t+1}(s,a) = (1-α)·Q_t(s,a) + α·(R + γ·max_a' Q_t(s',a'))
//
// (Equation 1 of the paper), greedy/ε-greedy action selection, and the
// gossip merge ("average when both know the pair, adopt when only one does")
// that Algorithm 2's aggregation phase applies.
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
// allocation-free in steady state. Keys outside the calibrated span are
// legal and spill to an overflow map.
package qlearn

import (
	"fmt"
	"math"
	"sort"
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

// Precision selects the storage width of a table's Q-values. Reads always
// widen to float64 and Equation 1's arithmetic always accumulates in
// float64; the precision only decides how a value is rounded when it is
// stored. F64 is the exact default every fingerprinted run uses; F32 halves
// the value bytes of the dominant cluster-scale memory term (see Footprint)
// for a bounded, quantified drift — GLAP's Q-values live in a quantised
// level space whose pairwise-averaging merge collapses variance across PMs,
// so they carry far fewer than 53 significant bits of information.
type Precision uint8

const (
	// F64 stores Q-values as float64 (exact, the default).
	F64 Precision = iota
	// F32 stores Q-values as float32: float64 accumulation, one rounding
	// point on store.
	F32
)

// String returns the tier's short name ("f64"/"f32").
func (p Precision) String() string {
	if p == F32 {
		return "f32"
	}
	return "f64"
}

// ValueBytes returns the storage width of one Q-value under this tier.
func (p Precision) ValueBytes() int {
	if p == F32 {
		return 4
	}
	return 8
}

// round applies the tier's single rounding point: the value a store under
// this precision actually retains.
func (p Precision) round(v float64) float64 {
	if p == F32 {
		return float64(float32(v))
	}
	return v
}

// DenseSpan is the per-dimension size of the calibrated cell space: GLAP's
// level pairs (9 levels × 2 resources = 81 packed states and actions).
// Cells inside DenseSpan×DenseSpan live in the sorted backing array; cells
// beyond it (legal, but absent from calibrated runs) spill to a map.
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

	// prec is the value-storage tier (F64 default). It is fixed at
	// construction: a table and its backing always agree, and merges
	// require both endpoints on one tier.
	prec Precision
}

// backing is the shared cell store. idx holds the written in-span cells as
// s*DenseSpan+a in ascending order — (state, action) lexicographic — and
// vals (F64 tier) or vals32 (F32 tier) the matching Q-values. over holds
// the rare out-of-span cells.
type backing struct {
	// ref counts the Tables referencing this backing. It is atomic because
	// re-learning phases (InstallContinuous) run parallel training rounds on
	// tables that a previous aggregation phase left sharing backings, and
	// their first writes race to detach.
	ref atomic.Int32

	idx    []uint16
	vals   []float64 // F64 tier value array (nil on F32 backings)
	vals32 []float32 // F32 tier value array (nil on F64 backings)
	over   map[Key]float64

	// f32 marks the backing as storing its in-span values in vals32. The
	// overflow map stays float64 on both tiers (out-of-span cells are
	// hostile-checkpoint territory, never hot); its values are still rounded
	// through the tier's rounding point on store so both stores of a table
	// quantise identically.
	f32 bool

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

func (b *backing) len() int { return len(b.idx) + len(b.over) }

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

// val returns the widened value at in-span position i.
func (b *backing) val(i int) float64 {
	if b.f32 {
		return float64(b.vals32[i])
	}
	return b.vals[i]
}

// setVal writes the (already rounded) value at in-span position i.
func (b *backing) setVal(i int, v float64) {
	if b.f32 {
		b.vals32[i] = float32(v)
	} else {
		b.vals[i] = v
	}
}

// insertVal opens a slot at position i in the tier's value array (the idx
// insertion happens in Set, which owns the canonical-array copy semantics).
func (b *backing) insertVal(i int) {
	if b.f32 {
		b.vals32 = append(b.vals32, 0)
		copy(b.vals32[i+1:], b.vals32[i:])
	} else {
		b.vals = append(b.vals, 0)
		copy(b.vals[i+1:], b.vals[i:])
	}
}

// value constrains the generic merge kernels to the two storage tiers. The
// float64 instantiations compile to the exact pre-tier arithmetic (the
// float64→float64 conversions are no-ops), which is what keeps the default
// tier's golden fingerprints byte-identical.
type value interface {
	~float32 | ~float64
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
// The two value tiers keep disjoint free lists (vals/vals32): a float64
// array can never be handed to an F32 backing or vice versa, so mixed-tier
// runs recycle within each tier without cross-contamination.
var backingPool struct {
	mu     sync.Mutex
	nodes  []*backing
	idxs   [][]uint16
	vals   [][]float64
	vals32 [][]float32
}

// poolMax bounds each recycled free list.
const poolMax = 16

// poolTake removes and returns a pooled array with capacity for need
// elements, or nil when none fits. Callers hold backingPool.mu.
func poolTake[T any](free *[][]T, need int) []T {
	f := *free
	for i, a := range f {
		if cap(a) >= need {
			last := len(f) - 1
			f[i] = f[last]
			f[last] = nil
			*free = f[:last]
			return a[:0]
		}
	}
	return nil
}

// poolPutIdx returns a private idx array to the pool; union merges use it
// when interning hands the backing a canonical array instead of the one it
// just built.
func poolPutIdx(a []uint16) {
	backingPool.mu.Lock()
	if len(backingPool.idxs) < poolMax {
		backingPool.idxs = append(backingPool.idxs, a[:0])
	}
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

// newBacking allocates a fresh unshared backing with room for need cells on
// the given tier.
func newBacking(need int, f32 bool) *backing {
	c := capRound(need)
	b := &backing{idx: make([]uint16, 0, c), f32: f32}
	if f32 {
		b.vals32 = make([]float32, 0, c)
	} else {
		b.vals = make([]float64, 0, c)
	}
	b.ref.Store(1)
	b.invalidateRowMax()
	return b
}

// acquireBacking returns an empty unshared backing on the given tier with
// capacity for need cells, assembled from pooled parts when they fit. Only
// the matching tier's value free list is consulted.
func acquireBacking(need int, f32 bool) *backing {
	backingPool.mu.Lock()
	var b *backing
	if n := len(backingPool.nodes); n > 0 {
		b = backingPool.nodes[n-1]
		backingPool.nodes[n-1] = nil
		backingPool.nodes = backingPool.nodes[:n-1]
	}
	idx := poolTake(&backingPool.idxs, need)
	var vals []float64
	var vals32 []float32
	if f32 {
		vals32 = poolTake(&backingPool.vals32, need)
	} else {
		vals = poolTake(&backingPool.vals, need)
	}
	backingPool.mu.Unlock()
	if b == nil {
		b = &backing{}
	}
	c := capRound(need)
	if idx == nil {
		idx = make([]uint16, 0, c)
	}
	if f32 && vals32 == nil {
		vals32 = make([]float32, 0, c)
	}
	if !f32 && vals == nil {
		vals = make([]float64, 0, c)
	}
	b.idx, b.vals, b.vals32, b.over, b.idxShared, b.f32 = idx, vals, vals32, nil, false, f32
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
func acquireAliasBacking(canon []uint16, f32 bool, h uint64) *backing {
	backingPool.mu.Lock()
	var b *backing
	if n := len(backingPool.nodes); n > 0 {
		b = backingPool.nodes[n-1]
		backingPool.nodes[n-1] = nil
		backingPool.nodes = backingPool.nodes[:n-1]
	}
	var vals []float64
	var vals32 []float32
	if f32 {
		vals32 = poolTake(&backingPool.vals32, len(canon))
	} else {
		vals = poolTake(&backingPool.vals, len(canon))
	}
	backingPool.mu.Unlock()
	if b == nil {
		b = &backing{}
	}
	if f32 && vals32 == nil {
		vals32 = make([]float32, 0, capRound(len(canon)))
	}
	if !f32 && vals == nil {
		vals = make([]float64, 0, capRound(len(canon)))
	}
	b.idx, b.vals, b.vals32, b.over, b.idxShared, b.f32 = canon, vals, vals32, nil, true, f32
	b.idxHash.Store(h)
	b.ref.Store(1)
	b.invalidateRowMax()
	return b
}

// releaseBacking returns an unreferenced backing's parts to the pool. A
// canonical (shared) idx array is dropped, not pooled: other backings may
// still alias it, and pooled arrays get written through. Value arrays go
// back to their own tier's free list.
func releaseBacking(b *backing) {
	idx, vals, vals32 := b.idx, b.vals, b.vals32
	shared := b.idxShared
	b.idx, b.vals, b.vals32, b.over, b.idxShared, b.f32 = nil, nil, nil, nil, false, false
	b.idxHash.Store(0)
	backingPool.mu.Lock()
	if len(backingPool.nodes) < poolMax {
		backingPool.nodes = append(backingPool.nodes, b)
	}
	if !shared && idx != nil && len(backingPool.idxs) < poolMax {
		backingPool.idxs = append(backingPool.idxs, idx[:0])
	}
	if vals != nil && len(backingPool.vals) < poolMax {
		backingPool.vals = append(backingPool.vals, vals[:0])
	}
	if vals32 != nil && len(backingPool.vals32) < poolMax {
		backingPool.vals32 = append(backingPool.vals32, vals32[:0])
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
		b = newBacking(extra, t.prec == F32)
		t.b = b
		return b
	}
	if b.ref.Load() > 1 {
		nb := acquireBacking(len(b.idx)+extra, b.f32)
		nb.idx = append(nb.idx, b.idx...)
		nb.idxHash.Store(b.idxHash.Load()) // same cell set, same identity
		if b.f32 {
			nb.vals32 = append(nb.vals32, b.vals32...)
		} else {
			nb.vals = append(nb.vals, b.vals...)
		}
		if len(b.over) > 0 {
			nb.over = make(map[Key]float64, len(b.over))
			for k, v := range b.over {
				nb.over[k] = v
			}
		}
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

// New returns an empty F64 table with the given learning rate and discount.
// The backing is allocated lazily on first write, so never-trained tables
// (PMs that end the learning phase without Q-values) stay cheap.
func New(alpha, gamma float64) *Table {
	return NewP(alpha, gamma, F64)
}

// NewP is New with an explicit value-storage tier.
func NewP(alpha, gamma float64, prec Precision) *Table {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("qlearn: alpha %g out of (0,1]", alpha))
	}
	if gamma < 0 || gamma >= 1 {
		panic(fmt.Sprintf("qlearn: gamma %g out of [0,1)", gamma))
	}
	if prec > F32 {
		panic(fmt.Sprintf("qlearn: unknown precision %d", prec))
	}
	return &Table{Alpha: alpha, Gamma: gamma, prec: prec}
}

// Precision returns the table's value-storage tier.
func (t *Table) Precision() Precision { return t.prec }

// Len returns the number of (state, action) cells present.
func (t *Table) Len() int {
	if t.b == nil {
		return 0
	}
	return t.b.len()
}

// inSpan reports whether the cell lives in the sorted in-span array.
func inSpan(s State, a Action) bool {
	return int(s) < DenseSpan && int(a) < DenseSpan
}

// Get returns the Q-value for (s, a); missing cells read as 0, matching the
// optimistic-zero initialisation the paper's reward design assumes.
func (t *Table) Get(s State, a Action) float64 {
	b := t.b
	if b == nil {
		return 0
	}
	if inSpan(s, a) {
		if i, ok := b.find(uint16(int(s)*DenseSpan + int(a))); ok {
			return b.val(i)
		}
		return 0
	}
	return b.over[Key{s, a}]
}

// Has reports whether the cell (s, a) has been written.
func (t *Table) Has(s State, a Action) bool {
	b := t.b
	if b == nil {
		return false
	}
	if inSpan(s, a) {
		_, ok := b.find(uint16(int(s)*DenseSpan + int(a)))
		return ok
	}
	_, ok := b.over[Key{s, a}]
	return ok
}

// Set writes the Q-value for (s, a), rounded through the table's precision
// (the tier's single rounding point — all arithmetic upstream of a store is
// float64). Writing to a shared backing detaches a private copy first;
// in-span writes to an owned backing with spare capacity — the training
// steady state — do not allocate.
func (t *Table) Set(s State, a Action, v float64) {
	v = t.prec.round(v)
	if !inSpan(s, a) {
		b := t.own(0)
		if b.over == nil {
			b.over = make(map[Key]float64)
		}
		b.over[Key{s, a}] = v
		return
	}
	b := t.own(1)
	ci := uint16(int(s)*DenseSpan + int(a))
	i, ok := b.find(ci)
	old := 0.0
	if ok {
		old = b.val(i)
	} else {
		// A canonical (shared) idx array has cap==len, so this append
		// reallocates a private copy before the in-place shift below.
		b.idx = append(b.idx, 0)
		copy(b.idx[i+1:], b.idx[i:])
		b.idx[i] = ci
		b.idxShared = false
		b.idxHash.Store(0) // cell set changed; identity stale
		b.insertVal(i)
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
	b.setVal(i, v)
}

// Reserve grows the table's backing to hold at least cells in-span cells
// without further allocation, detaching from a shared backing if needed.
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
	if b.f32 {
		vals32 := make([]float32, len(b.vals32), cells)
		copy(vals32, b.vals32)
		b.vals32 = vals32
	} else {
		vals := make([]float64, len(b.vals), cells)
		copy(vals, b.vals)
		b.vals = vals
	}
	b.idx = idx
	b.idxShared = false
}

// rowScanMax returns the maximum over the present in-span cells of row s,
// 0 when the row has none (the bootstrap value for unseen states).
func (b *backing) rowScanMax(s int) float64 {
	lo, _ := b.find(uint16(s * DenseSpan))
	hi := s*DenseSpan + DenseSpan
	best, found := 0.0, false
	for i := lo; i < len(b.idx) && int(b.idx[i]) < hi; i++ {
		if v := b.val(i); !found || v > best {
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
	if len(b.over) == 0 {
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
	// Out-of-span cells present (test and hostile-checkpoint territory):
	// combine a full row scan with the overflow cells of the same state.
	best, found := 0.0, false
	if int(s) < DenseSpan {
		lo, _ := b.find(uint16(int(s) * DenseSpan))
		hi := int(s)*DenseSpan + DenseSpan
		for i := lo; i < len(b.idx) && int(b.idx[i]) < hi; i++ {
			if v := b.val(i); !found || v > best {
				best, found = v, true
			}
		}
	}
	for k, v := range b.over {
		if k.S == s && (!found || v > best) {
			best, found = v, true
		}
	}
	return best
}

// Update applies Equation 1 for the transition (s, a) -> next with observed
// reward r, and returns the new Q-value. The blend accumulates in float64
// on both tiers (reads widen); only the final store rounds, so an F32
// table's drift per update is one rounding, not three. In steady state
// (owned backing with capacity for the touched cells) it performs no
// allocation.
func (t *Table) Update(s State, a Action, r float64, next State) float64 {
	// Fast path: an in-span cell already present on an unshared backing —
	// the common case from the second visit of a transition onward. One
	// binary search serves both the old-value read and the store; the slow
	// path below would run the same search three times (Get, Set, and the
	// row-start probe inside an uncached MaxKnown).
	if b := t.b; b != nil && inSpan(s, a) && b.ref.Load() == 1 {
		if i, ok := b.find(uint16(int(s)*DenseSpan + int(a))); ok {
			old := b.val(i)
			v := t.prec.round((1-t.Alpha)*old + t.Alpha*(r+t.Gamma*t.MaxKnown(next)))
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
			b.setVal(i, v)
			return v
		}
	}
	old := t.Get(s, a)
	v := (1-t.Alpha)*old + t.Alpha*(r+t.Gamma*t.MaxKnown(next))
	t.Set(s, a, v)
	return t.prec.round(v)
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

// sortedOverKeys returns the overflow cells' keys in (state, action) order.
func (b *backing) sortedOverKeys() []Key {
	if len(b.over) == 0 {
		return nil
	}
	keys := make([]Key, 0, len(b.over))
	for k := range b.over {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].S != keys[j].S {
			return keys[i].S < keys[j].S
		}
		return keys[i].A < keys[j].A
	})
	return keys
}

// keyLess orders cell keys lexicographically by (state, action).
func keyLess(a, b Key) bool {
	if a.S != b.S {
		return a.S < b.S
	}
	return a.A < b.A
}

// cellKey converts an in-span array index entry to its Key.
func cellKey(ci uint16) Key {
	return Key{State(ci / DenseSpan), Action(ci % DenseSpan)}
}

// Keys returns all written cells in (state, action) order: one walk of the
// sorted in-span array, interleaved with the (rare) overflow cells.
func (t *Table) Keys() []Key {
	if t.b == nil {
		return nil
	}
	b := t.b
	keys := make([]Key, 0, b.len())
	overs := b.sortedOverKeys()
	j := 0
	for _, ci := range b.idx {
		k := cellKey(ci)
		for j < len(overs) && keyLess(overs[j], k) {
			keys = append(keys, overs[j])
			j++
		}
		keys = append(keys, k)
	}
	keys = append(keys, overs[j:]...)
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
		out[cellKey(ci)] = t.b.val(i)
	}
	for k, v := range t.b.over {
		out[k] = v
	}
	return out
}

// FillDense writes the table's cells into dst laid out as numS×numA
// (dst[s*numA+a], unwritten cells 0) and returns dst. Cells outside the
// requested span are dropped; GLAP's calibrated tables never have any. The
// caller supplies dst so per-sample convergence measurement can reuse one
// buffer instead of building a map per node per round.
func (t *Table) FillDense(dst []float64, numS, numA int) []float64 {
	if len(dst) < numS*numA {
		panic(fmt.Sprintf("qlearn: FillDense dst len %d < %d×%d", len(dst), numS, numA))
	}
	for i := range dst[:numS*numA] {
		dst[i] = 0
	}
	if t.b == nil {
		return dst
	}
	for i, ci := range t.b.idx {
		s, a := int(ci)/DenseSpan, int(ci)%DenseSpan
		if s < numS && a < numA {
			dst[s*numA+a] = t.b.val(i)
		}
	}
	for k, v := range t.b.over {
		if int(k.S) < numS && int(k.A) < numA {
			dst[int(k.S)*numA+int(k.A)] = v
		}
	}
	return dst
}

// FillDense32 is FillDense into a float32 buffer — the convergence
// measurement path of the F32 tier, which reads the vals32 arrays directly
// instead of materialising whole tables as float64. On an F32 table every
// copied value is exact; on an F64 table values are rounded into the buffer
// (measurement-only narrowing, never written back).
func (t *Table) FillDense32(dst []float32, numS, numA int) []float32 {
	if len(dst) < numS*numA {
		panic(fmt.Sprintf("qlearn: FillDense32 dst len %d < %d×%d", len(dst), numS, numA))
	}
	for i := range dst[:numS*numA] {
		dst[i] = 0
	}
	if t.b == nil {
		return dst
	}
	b := t.b
	for i, ci := range b.idx {
		s, a := int(ci)/DenseSpan, int(ci)%DenseSpan
		if s < numS && a < numA {
			if b.f32 {
				dst[s*numA+a] = b.vals32[i]
			} else {
				dst[s*numA+a] = float32(b.vals[i])
			}
		}
	}
	for k, v := range b.over {
		if int(k.S) < numS && int(k.A) < numA {
			dst[int(k.S)*numA+int(k.A)] = float32(v)
		}
	}
	return dst
}

// Clone returns a deep copy of the table with its own unshared backing.
func (t *Table) Clone() *Table {
	c := &Table{Alpha: t.Alpha, Gamma: t.Gamma, prec: t.prec}
	if t.b != nil {
		b := t.b
		nb := newBacking(len(b.idx), b.f32)
		nb.idx = append(nb.idx, b.idx...)
		nb.idxHash.Store(b.idxHash.Load())
		if b.f32 {
			nb.vals32 = append(nb.vals32, b.vals32...)
		} else {
			nb.vals = append(nb.vals, b.vals...)
		}
		if len(b.over) > 0 {
			nb.over = make(map[Key]float64, len(b.over))
			for k, v := range b.over {
				nb.over[k] = v
			}
		}
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
// the bytes they reserve — including append slack and overflow maps — and,
// separately, the bytes of the value arrays alone (valueBytes ⊆ bytes; 8
// per reserved cell on the F64 tier, 4 on F32). The scale benchmark uses
// the split to attribute the precision tier's saving directly; the cells
// figure is the logical total (shared backings still counted once).
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
		valueBytes += int64(cap(b.vals))*8 + int64(cap(b.vals32))*4
		bytes += int64(len(b.over)) * 32
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

// overUnion merges the overflow maps of pb and qb into a fresh map,
// averaging through prec's rounding point (a no-op on F64).
func overUnion(pb, qb *backing, prec Precision) map[Key]float64 {
	if len(pb.over) == 0 && len(qb.over) == 0 {
		return nil
	}
	out := make(map[Key]float64, len(pb.over)+len(qb.over))
	for k, v := range pb.over {
		out[k] = v
	}
	for k, v := range qb.over {
		if pv, ok := out[k]; ok {
			if pv != v {
				out[k] = prec.round((pv + v) / 2)
			}
		} else {
			out[k] = v
		}
	}
	return out
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

// unionScan is mergeTables' comparison pass over one tier's value arrays:
// union size of the two sorted cell sets plus value equality on the shared
// cells. Values are compared only up to the first difference — one settles
// valsEqual, and mid-convergence, when most cells differ in their last bits,
// the rest of the scan is index-only.
func unionScan[V value](pi, qi []uint16, pvals, qvals []V) (union int, valsEqual bool) {
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
// verbatim when a == b, otherwise the float64 midpoint rounded once into the
// tier (for V=float64 the conversions are no-ops and this is the exact
// pre-tier arithmetic). Mid-convergence the two cases alternate cell by cell
// with no pattern a branch predictor can learn, so the midpoint is computed
// unconditionally and a is selected over it in the integer domain: widening
// is exact and injective on both tiers, so a == b exactly when the widened
// bit patterns agree or both are zeros of either sign. Keeping a is what
// preserves -0 against +0 and |a| > MaxFloat64/2, where a+a overflows. The
// two ifs each compile to a conditional move; joined by || they compile to a
// branch.
func merged[V value](a, b V) V {
	fa, fb := float64(a), float64(b)
	ab, bb := math.Float64bits(fa), math.Float64bits(fb)
	mb := math.Float64bits(float64(V((fa + fb) / 2)))
	if ab == bb {
		mb = ab
	}
	if (ab|bb)<<1 == 0 {
		mb = ab
	}
	return V(math.Float64frombits(mb))
}

// averageInto folds o's values into d's for equal cell sets.
func averageInto[V value](dvals, ovals []V) {
	ovals = ovals[:len(dvals)]
	for i := range dvals {
		dvals[i] = merged(dvals[i], ovals[i])
	}
}

// valsEqualAligned reports cell-wise value equality of two aligned value
// arrays — the comparison scan of the aligned fast path, with the same !=
// semantics as unionScan's shared-cell compare.
func valsEqualAligned[V value](a, b []V) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// averageAligned writes the merge of two aligned value arrays into dst —
// bit-identical to what unionBuild produces for a cell present on both sides.
func averageAligned[V value](dst, a, b []V) {
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
func mergeValsInto[V value](dvals []V, pi, qi []uint16, pvals, qvals []V) {
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
// the pre-sized didx/dvals, averaging shared cells in float64 with one
// rounding point on store.
func unionBuild[V value](didx []uint16, dvals []V, pi, qi []uint16, pvals, qvals []V) {
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
	if p.prec != q.prec {
		// A cross-tier merge would have to pick a rounding regime for the
		// surviving shared backing; GLAP clusters run one tier, so this is a
		// wiring bug, not a state to average through.
		panic(fmt.Sprintf("qlearn: merging %s table with %s table", p.prec, q.prec))
	}
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
		if pb.f32 {
			valsEqual = valsEqualAligned(pb.vals32, qb.vals32)
		} else {
			valsEqual = valsEqualAligned(pb.vals, qb.vals)
		}
	case pb.f32:
		union, valsEqual = unionScan(pi, qi, pb.vals32, qb.vals32)
	default:
		union, valsEqual = unionScan(pi, qi, pb.vals, qb.vals)
	}
	setsEqual := union == len(pi) && union == len(qi)

	overSetsEqual, overEqual := true, true
	if len(pb.over) != len(qb.over) {
		overSetsEqual, overEqual = false, false
	} else {
		for k, v := range pb.over {
			qv, ok := qb.over[k]
			if !ok {
				overSetsEqual, overEqual = false, false
				break
			}
			if qv != v {
				overEqual = false
			}
		}
	}

	if setsEqual && valsEqual && overEqual {
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

	if setsEqual && overSetsEqual {
		if pOwned || qOwned {
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
			if d.f32 {
				averageInto(d.vals32, o.vals32)
			} else {
				averageInto(d.vals, o.vals)
			}
			for k, v := range d.over {
				if ov := o.over[k]; ov != v {
					d.over[k] = p.prec.round((v + ov) / 2)
				}
			}
			d.invalidateRowMax()
			other.b = d
			d.ref.Add(1)
			deref(o)
			return true
		}
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
		d = acquireAliasBacking(pi, pb.f32, pb.cellSetHash())
		if d.f32 {
			d.vals32 = d.vals32[:union]
			averageAligned(d.vals32, pb.vals32, qb.vals32)
		} else {
			d.vals = d.vals[:union]
			averageAligned(d.vals, pb.vals, qb.vals)
		}
	case union == len(pi) && pb.idxShared:
		mergeStats.unions.Add(1)
		d = acquireAliasBacking(pi, pb.f32, pb.cellSetHash())
		if d.f32 {
			d.vals32 = d.vals32[:union]
			mergeValsInto(d.vals32, pi, qi, pb.vals32, qb.vals32)
		} else {
			d.vals = d.vals[:union]
			mergeValsInto(d.vals, pi, qi, pb.vals, qb.vals)
		}
	case union == len(qi) && qb.idxShared:
		mergeStats.unions.Add(1)
		d = acquireAliasBacking(qi, qb.f32, qb.cellSetHash())
		if d.f32 {
			d.vals32 = d.vals32[:union]
			mergeValsInto(d.vals32, qi, pi, qb.vals32, pb.vals32)
		} else {
			d.vals = d.vals[:union]
			mergeValsInto(d.vals, qi, pi, qb.vals, pb.vals)
		}
	default:
		mergeStats.unions.Add(1)
		d = acquireBacking(union, pb.f32)
		d.idx = d.idx[:union]
		if d.f32 {
			d.vals32 = d.vals32[:union]
			unionBuild(d.idx, d.vals32, pi, qi, pb.vals32, qb.vals32)
		} else {
			d.vals = d.vals[:union]
			unionBuild(d.idx, d.vals, pi, qi, pb.vals, qb.vals)
		}
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
	d.over = overUnion(pb, qb, p.prec)
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
	pb, qb := p.b, q.b
	if pb == qb {
		return true
	}
	pl, ql := 0, 0
	if pb != nil {
		pl = pb.len()
	}
	if qb != nil {
		ql = qb.len()
	}
	if pl != ql {
		return false
	}
	if pl == 0 {
		return true
	}
	if len(pb.idx) != len(qb.idx) {
		return false
	}
	for i := range pb.idx {
		if pb.idx[i] != qb.idx[i] {
			return false
		}
	}
	// Values compare widened, so an F64 table and an F32 table holding the
	// same representable values are equal.
	for i := range pb.idx {
		if pb.val(i) != qb.val(i) {
			return false
		}
	}
	for k, v := range pb.over {
		if qv, ok := qb.over[k]; !ok || qv != v {
			return false
		}
	}
	return true
}

// EpsilonGreedy selects among candidates: with probability eps a uniformly
// random candidate (exploration), otherwise the Best action (exploitation).
// rnd(n) must return a uniform integer in [0, n). ok is false when
// candidates is empty.
func (t *Table) EpsilonGreedy(s State, candidates []Action, eps float64, rnd func(n int) int, coin func() float64) (a Action, ok bool) {
	if len(candidates) == 0 {
		return 0, false
	}
	if eps > 0 && coin() < eps {
		return candidates[rnd(len(candidates))], true
	}
	a, _, ok = t.Best(s, candidates)
	return a, ok
}
