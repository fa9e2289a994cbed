package glap

import (
	"math/bits"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
)

// LearnProtocolName registers the Gossip Learning component.
const LearnProtocolName = "glap-learn"

// NodeTables is a PM's Q-value store: the φ^out and φ^in tables plus a flag
// recording whether this node ran local training (PMs above the utilisation
// threshold end the learning phase without any Q-values and only obtain them
// through aggregation).
type NodeTables struct {
	Out *qlearn.Table
	In  *qlearn.Table
	// Trained is set once the node executed at least one local training
	// round.
	Trained bool

	// ioVec is the node's reusable dense φ^io buffer, (re)filled by IOVec.
	// Convergence measurement samples it every measured round, so the
	// buffer is kept across samples instead of building a map each time.
	ioVec []float64

	// scratch holds the node's reusable training buffers. Keeping them in
	// the per-node store (rather than on the protocol) preserves the
	// ParallelRound contract: a training round touches nothing but state
	// owned by its node.
	scratch learnScratch
}

// Clone deep-copies the store. The scratch buffers (IOVec, training
// scratch) are not carried over; the clone refills its own on first use.
func (t *NodeTables) Clone() *NodeTables {
	return &NodeTables{Out: t.Out.Clone(), In: t.In.Clone(), Trained: t.Trained}
}

// NewNodeTables builds an empty, untrained Q store under cfg's learning
// parameters — the state a cold-restarted PM comes back with after a crash
// wiped its tables.
func NewNodeTables(cfg Config) *NodeTables {
	cfg = cfg.withDefaults()
	return &NodeTables{
		Out: qlearn.New(cfg.Alpha, cfg.Gamma),
		In:  qlearn.New(cfg.Alpha, cfg.Gamma),
	}
}

// tableCells is the cell count of one table over the calibrated space:
// NumLevels² packed states by NumLevels² packed actions (levels.go pins
// NumLevels² == qlearn.DenseSpan).
const tableCells = qlearn.DenseSpan * qlearn.DenseSpan

// IOVecLen is the length of the dense φ^io vector: the φ^out cells over the
// full calibrated state×action space followed by the φ^in cells.
const IOVecLen = 2 * tableCells

// IOVec flattens both tables into one dense vector (the paper's
// φ^io = φ^in ∪ φ^out) aligned over the calibrated space, reusing the
// node's buffer. Out-cells occupy the first half and in-cells the second,
// so the two tables never collide. All NodeTables share one layout, so
// vectors from different nodes feed straight into aligned-slice cosine
// similarity.
func (t *NodeTables) IOVec() []float64 {
	if t.ioVec == nil {
		t.ioVec = make([]float64, IOVecLen)
	}
	t.Out.FillDense(t.ioVec[:tableCells])
	t.In.FillDense(t.ioVec[tableCells:])
	return t.ioVec
}

// kernelProfile is one collected VM profile — Algorithm 1's exchange unit — in
// the kernel's representation: the demand fractions pre-multiplied by the
// VM's capacity (the only form the aggregation ever needs) and the VM's
// calibrated action under both demand signals. Everything trainOnce reads of
// a profile is precomputed here once per round.
type kernelProfile struct {
	// wAvg and wCur are the weighted demand vectors avg·cap and cur·cap.
	wAvg, wCur dc.Vec
	// actAvg and actCur are the VM's calibrated migration action from
	// average and current demand respectively (the CurrentDemandOnly
	// ablation switches between them).
	actAvg, actCur qlearn.Action
}

// learnScratch is a node's reusable training state. The duplicated profile
// multiset of Algorithm 1 is represented as the base profiles plus a total
// repeat count: multiset element k is base[k mod len(base)], because
// duplication appends the base profiles cyclically. Duplication is thereby
// O(1) space bookkeeping instead of slice inflation (the reference kernel
// materialises up to 64× the base set), and a partition's sums are counted
// per base profile rather than folded per element.
type learnScratch struct {
	// ids is the VM-id collection buffer fed to dc.PM.AppendVMIDs.
	ids []int
	// base holds the collected profiles (own VMs then peer VMs, each in
	// ascending VM-ID order — the same order the reference kernel collects).
	base []kernelProfile
	// total is the multiset size after duplication (≥ len(base)).
	total int
	// totAvg and totCur are the duplicated multiset's summed weighted demand
	// vectors, precomputed once per Round (they are constant across training
	// iterations and partition-retry attempts). trainOnce accumulates only the
	// sender side of each partition and derives the recipient sums as
	// totals − sender.
	totAvg, totCur dc.Vec
	// bits is trainOnce's partition bitset: bit k is set when multiset
	// element k landed sender-side. It grows to the high-water multiset size
	// and is kept across iterations and rounds.
	bits []uint64
	// masks selects each base profile's elements from the bitset, rebuilt
	// once per Round: word w of profile j's row (masks[j*words+w], words =
	// ⌈total/64⌉) has bit b set iff element 64w+b is a copy of base[j], so
	// popcount(bits[w] & mask) counts the copies of base[j] a partition put
	// sender-side in that word.
	masks []uint64
	// cal is the level-boundary table of the PM capacity it was last built
	// for (rebuilt when the capacity differs, which on one node it never does).
	cal calibration
}

// appendKernelProfile collects vm into the scratch base set.
func appendKernelProfile(dst []kernelProfile, vm *dc.VM) []kernelProfile {
	cur, avg, cp := vm.CurDemand(), vm.AvgDemand(), vm.Spec.Capacity
	var k kernelProfile
	for r := 0; r < dc.NumResources; r++ {
		k.wAvg[r] = avg[r] * cp[r]
		k.wCur[r] = cur[r] * cp[r]
	}
	k.actAvg = LevelsOf(avg).Action()
	k.actCur = LevelsOf(cur).Action()
	return append(dst, k)
}

// LearnProtocol is Algorithm 1: within each learning round, every PM whose
// load permits collects the VM profiles of one random neighbour, merges them
// with its own, duplicates them to cover heavily loaded states, and then
// simulates k sender/recipient migrations, updating φ^out and φ^in with
// Equation 1.
type LearnProtocol struct {
	Cfg Config
	B   *policy.Binding

	rng sim.BoundNodeRNG
}

// Name implements sim.Protocol.
func (l *LearnProtocol) Name() string { return LearnProtocolName }

// Parallelizable implements sim.ParallelRound: Round only writes the active
// node's own Q store (including its node-local training scratch), its own
// cyclon view, and its own derived random stream; peers and the cluster are
// read-only. That makes the learning phase — the paper's "700 more rounds"
// of pre-training — safe to fan out across the engine's workers with
// byte-identical results for any worker count.
func (l *LearnProtocol) Parallelizable() bool { return true }

// Setup creates the node's empty Q store.
func (l *LearnProtocol) Setup(e *sim.Engine, n *sim.Node) any {
	return &NodeTables{
		Out: qlearn.New(l.Cfg.Alpha, l.Cfg.Gamma),
		In:  qlearn.New(l.Cfg.Alpha, l.Cfg.Gamma),
	}
}

// TablesOf returns node n's Q store.
func TablesOf(e *sim.Engine, n *sim.Node) *NodeTables {
	return e.State(LearnProtocolName, n).(*NodeTables)
}

// Round implements one local training round (Algorithm 1 body). Each node
// draws from its own derived stream — a prerequisite of the ParallelRound
// contract, and what keeps training independent of node visit order.
//
// The round is allocation-free in steady state: profile collection refills
// the node's scratch buffers instead of rebuilding slices from nil,
// duplication computes a repeat count instead of materialising copies, and
// the training iterations run the straight-line kernel below.
func (l *LearnProtocol) Round(e *sim.Engine, n *sim.Node, round int) {
	rng := l.rng.For(e, n.ID, 0x61ea51)
	c := l.B.C
	pm := l.B.PM(n)
	// Only lightly loaded PMs train, to avoid impacting collocated VMs.
	if c.AvgUtil(pm)[dc.CPU] > l.Cfg.LearnUtilThreshold {
		return
	}

	st := TablesOf(e, n)
	sc := &st.scratch

	// Collect profiles: local VMs plus the VMs of one random neighbour,
	// each set in ascending VM-ID order.
	sc.base = sc.base[:0]
	sc.ids = pm.AppendVMIDs(sc.ids[:0])
	for _, id := range sc.ids {
		sc.base = appendKernelProfile(sc.base, c.VMs[id])
	}
	if peer := cyclon.SelectPeer(e, n, rng); peer >= 0 {
		sc.ids = c.PMs[peer].AppendVMIDs(sc.ids[:0])
		for _, id := range sc.ids {
			sc.base = appendKernelProfile(sc.base, c.VMs[id])
		}
	}
	if len(sc.base) == 0 {
		return
	}

	// Duplicate profiles until the aggregate average CPU demand reaches
	// DuplicationTargetUtil of PM capacity so that high and overloaded
	// states are visited during training. Only the multiset size is
	// computed; elements are addressed as base[k mod len(base)].
	sc.total = coverCount(sc.base, pm.Spec.Capacity[dc.CPU], l.Cfg.DuplicationTargetUtil)
	sc.prepare(pm.Spec.Capacity)

	for it := 0; it < l.Cfg.LearnIterations; it++ {
		l.trainOnce(rng, st, sc)
	}
	st.Trained = true
}

// prepare derives, from the collected base set and multiset size, everything
// trainOnce reads that is constant across a Round's iterations: the multiset
// totals, a bitset large enough for the multiset, the per-profile element
// masks over it, and the boundary table of the PM capacity pmCap.
func (sc *learnScratch) prepare(pmCap dc.Vec) {
	sc.totAvg, sc.totCur = multisetTotals(sc.base, sc.total)
	words := (sc.total + 63) >> 6
	if cap(sc.bits) < words {
		sc.bits = make([]uint64, words)
	}
	sc.masks = profileMasks(sc.masks, len(sc.base), words)
	if sc.cal.cap != pmCap {
		sc.cal = calibrationFor(pmCap)
	}
}

// profileMasks fills dst (grown when too small) with the nb × words element
// masks of a multiset whose element k is base profile k mod nb: row j, word w
// has bit b set iff 64w+b ≡ j (mod nb). Every row is one periodic pattern —
// a bit every nb places from bit 0 — shifted up to the row's first element in
// the word. A shift of 64 or more (nb > 64) leaves the word empty, which is
// right: no element of that word is a copy of base[j]. Bits at and above the
// multiset size are set too; the partition bitset is zero there.
func profileMasks(dst []uint64, nb, words int) []uint64 {
	if cap(dst) < nb*words {
		dst = make([]uint64, nb*words)
	}
	dst = dst[:nb*words]
	if nb == 0 {
		return dst
	}
	var period uint64
	for b := 0; b < 64; b += nb {
		period |= 1 << uint(b)
	}
	for j := 0; j < nb; j++ {
		row := dst[j*words : (j+1)*words]
		for w := range row {
			// The first element of word w that is a copy of base[j] sits
			// (j − 64w) mod nb places into the word.
			shift := ((j-64*w)%nb + nb) % nb
			row[w] = period << uint(shift)
		}
	}
	return dst
}

// coverCount returns the size of the duplicated profile multiset: the base
// profiles followed by cyclic repeats until the running aggregate average
// CPU demand reaches target × capacity, capped at 64× the base size. The
// running sum replays the reference duplicateToCover's accumulation order
// exactly (float addition is order-sensitive), so the count matches the
// reference kernel's materialised length element-for-element.
func coverCount(base []kernelProfile, capCPU, target float64) int {
	sum := 0.0
	for i := range base {
		sum += base[i].wAvg[dc.CPU]
	}
	if sum <= 0 {
		return len(base)
	}
	n, limit, maxN := len(base), target*capCPU, 64*len(base)
	for sum < limit && n < maxN {
		for i := 0; i < len(base) && sum < limit; i++ {
			sum += base[i].wAvg[dc.CPU]
			n++
		}
	}
	return n
}

// multisetTotals returns the duplicated multiset's summed weighted average-
// and current-demand vectors. Multiset element k is base[k mod len(base)], so
// the totals are (total / len(base)) full cycles of the base sums plus the
// prefix of the first total mod len(base) elements — one pass over base
// regardless of the duplication factor (up to 64×).
func multisetTotals(base []kernelProfile, total int) (avg, cur dc.Vec) {
	nb := len(base)
	rem := total % nb
	var bAvg, bCur, pAvg, pCur dc.Vec
	for i := range base {
		if i == rem {
			pAvg, pCur = bAvg, bCur
		}
		for r := 0; r < dc.NumResources; r++ {
			bAvg[r] += base[i].wAvg[r]
			bCur[r] += base[i].wCur[r]
		}
	}
	full := float64(total / nb)
	for r := 0; r < dc.NumResources; r++ {
		avg[r] = full*bAvg[r] + pAvg[r]
		cur[r] = full*bCur[r] + pCur[r]
	}
	return avg, cur
}

// trainOnce performs one simulated migration: partition the profile multiset
// into a virtual sender and a virtual recipient, move one random sender VM,
// and apply updateOUT / updateIN per Equation 1. Pre-action states use
// average demand; post-action states use current demand (Figure 3).
//
// The iteration is three straight-line stages (DESIGN.md §7, "Bulk partition
// and exact calibration"). The partition draws one Bernoulli coin per
// multiset element — the sequence the reference kernel draws — in bulk, into
// a bitset; a coin is a 15–85 % event no predictor learns, so nothing here
// branches on one. The sender sums then come from per-profile counts: every
// multiset element is a copy of one base profile, so the sender holds c_j
// copies of base[j], counted by a popcount of the bitset under base[j]'s
// element masks, and each sum is Σ_j c_j·w_j in base order — one multiply-add
// per base profile instead of one add per multiset element. The recipient
// partition is never folded: its sums are the precomputed multiset totals
// minus the sender sums. Both the count-weighted sums and the derived ones
// differ from a per-element fold only at ulp scale, which level quantisation
// absorbs (TestLearnKernelDifferential is the witness). Post-action states
// derive incrementally: sAfter is the sender's current-demand sum minus the
// evicted VM, tAfter the recipient's sum plus it. The four sums are
// calibrated against the PM capacity through sc.cal, without dividing.
//
// sc must have been through prepare since its base set, total or the PM
// capacity last changed.
func (l *LearnProtocol) trainOnce(rng *sim.RNG, st *NodeTables, sc *learnScratch) {
	base := sc.base
	nb := len(base)
	// Random partition with a freshly drawn split bias per iteration so
	// the virtual recipient's pre-state sweeps the whole load range — from
	// nearly empty to beyond capacity — and the high states that matter
	// for rejection decisions are actually visited during training.
	pSender := 0.15 + 0.7*rng.Float64()
	thresh := sim.Thresh53(pSender)
	bs := sc.bits[:(sc.total+63)>>6]
	cnt := 0
	for attempt := 0; attempt < 8 && cnt == 0; attempt++ {
		cnt = rng.BernoulliBits(bs, sc.total, thresh)
	}
	if cnt == 0 {
		return
	}
	sAvg, sCur := senderSums(base, sc.masks, bs)
	tAvg := sc.totAvg.Sub(sAvg)
	tCur := sc.totCur.Sub(sCur)
	// An all-sender draw leaves the recipient partition empty; training
	// proceeds regardless — an empty virtual recipient is the legitimate
	// (Low, Low) pre-state of an idle PM, and φ^in needs those transitions
	// (see TestTrainOncePartitionRetry for the characterisation).
	//
	// The evicted VM is uniform over the sender elements: the Intn(cnt)-th
	// set bit is the element a materialised sender list would hold at that
	// index.
	p := &base[selectBit(bs, rng.Intn(cnt))%nb]
	useAvg := !l.Cfg.CurrentDemandOnly
	action := p.actAvg
	if !useAvg {
		action = p.actCur
	}

	// updateOUT: the sender's transition after evicting the picked VM.
	sBefore := sAvg
	if !useAvg {
		sBefore = sCur
	}
	l.updateOut(st.Out, sc.cal.state(sBefore), action, sc.cal.state(sCur.Sub(p.wCur)))

	// updateIN: the recipient's transition after accepting it.
	tBefore := tAvg
	if !useAvg {
		tBefore = tCur
	}
	l.updateIn(st.In, sc.cal.state(tBefore), action, sc.cal.state(tCur.Add(p.wCur)))
}

// senderSums returns the summed weighted average- and current-demand vectors
// of the partition bs selects from the multiset whose element masks are masks
// (profileMasks of len(base) profiles over len(bs) words): Σ_j c_j·w_j in
// base order, c_j the popcount of bs under base[j]'s row.
func senderSums(base []kernelProfile, masks, bs []uint64) (avg, cur dc.Vec) {
	words := len(bs)
	// Four scalar sums, not an indexed dc.Vec accumulator, which lives in
	// memory and puts a store-to-load round trip on every add. Each product
	// is converted explicitly so that it is rounded before the add: Go then
	// never fuses the pair into an FMA, whose single rounding would make the
	// sums depend on the target architecture.
	var avgCPU, avgMem, curCPU, curMem float64
	for j := range base {
		row := masks[j*words : (j+1)*words]
		c := 0
		for w, x := range bs {
			c += bits.OnesCount64(x & row[w])
		}
		cj, p := float64(c), &base[j]
		avgCPU += float64(cj * p.wAvg[dc.CPU])
		avgMem += float64(cj * p.wAvg[dc.Mem])
		curCPU += float64(cj * p.wCur[dc.CPU])
		curMem += float64(cj * p.wCur[dc.Mem])
	}
	return dc.Vec{dc.CPU: avgCPU, dc.Mem: avgMem}, dc.Vec{dc.CPU: curCPU, dc.Mem: curMem}
}

// selectBit returns the position of the r-th set bit (counting from zero) of
// the bitset bs, which must have more than r bits set.
func selectBit(bs []uint64, r int) int {
	for i, w := range bs {
		c := bits.OnesCount64(w)
		if r < c {
			for ; r > 0; r-- {
				w &= w - 1 // clear the lowest set bit
			}
			return i<<6 + bits.TrailingZeros64(w)
		}
		r -= c
	}
	panic("glap: selectBit rank beyond the bitset's population")
}

// stateOfSum calibrates an aggregate absolute demand vector against a PM
// capacity.
func stateOfSum(sum, cap dc.Vec) qlearn.State {
	return LevelsOf(sum.Div(cap)).State()
}

func (l *LearnProtocol) updateOut(out *qlearn.Table, s qlearn.State, a qlearn.Action, next qlearn.State) {
	r := l.Cfg.RewardOut.Of(LevelsOfState(next))
	out.Update(s, a, r, next)
}

func (l *LearnProtocol) updateIn(in *qlearn.Table, s qlearn.State, a qlearn.Action, next qlearn.State) {
	r := l.Cfg.RewardIn.Of(LevelsOfState(next))
	in.Update(s, a, r, next)
}
