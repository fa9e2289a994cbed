package dc

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"github.com/glap-sim/glap/internal/trace"
)

// The cluster core is laid out struct-of-arrays: every piece of mutable
// per-VM and per-PM state lives in an ID-indexed flat slice owned by the
// Cluster, and the exported VM/PM types are thin handles (ID + hardware
// spec + back-pointer) whose accessor methods read those slices. The handle
// objects themselves are immutable after New, carved from two contiguous
// backing arrays, so a 100k-PM cluster is a fixed set of flat allocations
// instead of hundreds of thousands of pointer-chased structs and per-PM
// maps. Hot loops (AdvanceRound, the learning kernel's VM walks) touch
// densely packed state with unit stride.

// Flag bits of vmFlags.
const (
	vmFlagDeparted uint8 = 1 << iota
	vmFlagSeeded
	// vmFlagPending marks a VM with a scheduled or retrying arrival: set by
	// SetLifecycle and crash-stranding, cleared by attach. The arrival scan
	// gates on this flag — not on vmArrive > 0, which would silently exclude
	// a stranded VM of the initial population (vmArrive 0) from retrying
	// placement.
	vmFlagPending
)

// VM is a handle onto one virtual machine's state. Demand fields are
// fractions of the VM's allocated capacity; absolute demand is
// fraction * Spec.Capacity.
type VM struct {
	// ID is the VM's dense index.
	ID int
	// Spec is the VM's nominal allocation.
	Spec VMSpec

	c *Cluster
}

// Host returns the hosting PM id, or -1 while unplaced.
func (v *VM) Host() int { return int(v.c.vmHost[v.ID]) }

// AvgDemand returns the running average demand fraction per resource (the
// paper's "average demand monitored up to now").
func (v *VM) AvgDemand() Vec { return v.c.vmAvg[v.ID] }

// CurDemand returns the current demand fraction per resource.
func (v *VM) CurDemand() Vec { return v.c.vmCur[v.ID] }

// SetCurDemand overrides the VM's current demand fraction, keeping the host
// PM's cached demand sums consistent. It exists for tests that sculpt
// specific demand scenarios; simulations refresh demand from the workload
// in AdvanceRound.
func (v *VM) SetCurDemand(d Vec) {
	c := v.c
	if h := c.vmHost[v.ID]; h >= 0 {
		c.pmCurSum[h] = c.pmCurSum[h].Sub(v.CurAbs())
		c.vmCur[v.ID] = d
		c.pmCurSum[h] = c.pmCurSum[h].Add(v.CurAbs())
		return
	}
	c.vmCur[v.ID] = d
}

// CurAbs returns the current absolute demand (MIPS, MB).
func (v *VM) CurAbs() Vec {
	cur, cp := v.c.vmCur[v.ID], v.c.vmCap[v.ID]
	return Vec{cur[CPU] * cp[CPU], cur[Mem] * cp[Mem]}
}

// AvgAbs returns the average absolute demand (MIPS, MB).
func (v *VM) AvgAbs() Vec {
	avg, cp := v.c.vmAvg[v.ID], v.c.vmCap[v.ID]
	return Vec{avg[CPU] * cp[CPU], avg[Mem] * cp[Mem]}
}

// MigrationCount returns the number of completed live migrations of this VM.
func (v *VM) MigrationCount() int { return int(v.c.vmMigs[v.ID]) }

// DegradationRatio returns C_d / C_r for the SLALM metric; 0 when the VM has
// not yet requested any CPU.
func (v *VM) DegradationRatio() float64 {
	if v.c.vmRequested[v.ID] == 0 {
		return 0
	}
	return v.c.vmDegraded[v.ID] / v.c.vmRequested[v.ID]
}

// PM is a handle onto one physical machine's state.
type PM struct {
	// ID is the PM's dense index.
	ID int
	// Spec is the hardware model.
	Spec PMSpec

	c *Cluster
}

// On reports whether the PM is powered.
func (p *PM) On() bool { return p.c.pmOn(p.ID) }

// NumVMs returns the number of hosted VMs.
func (p *PM) NumVMs() int { return len(p.c.pmVMs[p.ID]) }

// VMIDs returns the hosted VM ids in ascending order. The copy is the
// caller's to keep.
func (p *PM) VMIDs() []int {
	return p.AppendVMIDs(make([]int, 0, p.NumVMs()))
}

// AppendVMIDs appends the hosted VM ids in ascending order to dst and
// returns the extended slice. Callers on a hot path pass a reused buffer
// (typically dst[:0]) so the collection allocates nothing once the buffer
// has grown to the high-water VM count — the learning kernel walks two PMs'
// VM sets every training round and must not build garbage doing so. The
// per-PM lists are maintained in sorted order, so this is a straight copy.
func (p *PM) AppendVMIDs(dst []int) []int {
	for _, id := range p.c.pmVMs[p.ID] {
		dst = append(dst, int(id))
	}
	return dst
}

// AppendVMs is AppendVMIDs for VM handles: it appends the hosted VMs in
// ascending ID order to dst. The result is a snapshot — migrating a VM away
// while ranging over it is safe. The consolidation decision paths pass a
// call-local stack buffer, so reading a PM's VM list allocates nothing.
func (p *PM) AppendVMs(dst []*VM) []*VM {
	ids := p.c.pmVMs[p.ID]
	dst = slices.Grow(dst, len(ids))
	for _, id := range ids {
		dst = append(dst, p.c.VMs[id])
	}
	return dst
}

// ActiveSeconds returns total powered-on time (T_a in Eq. 1).
func (p *PM) ActiveSeconds() float64 { return p.c.pmActiveSec[p.ID] }

// OverloadSeconds returns total time at 100% CPU utilisation (T_s in Eq. 1).
func (p *PM) OverloadSeconds() float64 { return p.c.pmOverloadSec[p.ID] }

// EnergyJ returns the PM's accumulated baseline energy (excluding migration
// overhead, which the cluster ledger tracks separately).
func (p *PM) EnergyJ() float64 { return p.c.pmEnergyJ[p.ID] }

// Migration describes one completed live migration for the energy ledger.
type Migration struct {
	VM       int
	From, To int
	Round    int
	// Seconds is the migration duration τ (VM memory / bandwidth).
	Seconds float64
	// EnergyJ is the overhead energy per Eq. 3.
	EnergyJ float64
}

// resKey identifies one capacity reservation: reservations are keyed by
// (PM, offer token) in a single cluster-level map, since at any instant
// only a handful of the cluster's PMs hold one — a per-PM map would burn a
// map header per machine for a nearly-always-empty structure.
type resKey struct {
	pm    int32
	token uint64
}

// Cluster is the full data center: PMs, VMs, the driving workload, and the
// global accounting the evaluation metrics are computed from. All mutable
// per-entity state is held in the ID-indexed slices below; PMs and VMs are
// stable handles into them.
type Cluster struct {
	PMs []*PM
	VMs []*VM

	// Per-VM state, indexed by VM id.
	vmHost      []int32   // hosting PM id, -1 while unplaced
	vmCur       []Vec     // current-round demand fraction
	vmAvg       []Vec     // running average demand (the paper's {c, v} tuple...)
	vmCount     []int32   // ...where this is c, the number of observations
	vmCap       []Vec     // absolute capacity (Spec.Capacity), precomputed
	vmMigs      []int32   // completed live migrations
	vmDegraded  []float64 // C_d: migration CPU degradation (MIPS·s)
	vmRequested []float64 // C_r: lifetime requested CPU (MIPS·s)
	vmArrive    []int32   // first round present
	vmDepart    []int32   // first round absent, -1 = never
	vmFlags     []uint8   // vmFlagDeparted | vmFlagSeeded

	// Per-PM state, indexed by PM id.
	pmUp          []uint64 // powered-state bitset, bit p of word p/64
	pmCurSum      []Vec    // aggregate current absolute demand of hosted VMs
	pmAvgSum      []Vec    // aggregate running-average absolute demand
	pmAllocSum    []Vec    // aggregate nominal allocation (Spec.Capacity) of hosted VMs
	pmResSum      []Vec    // aggregate reserved demand (see reserve.go)
	pmResCount    []int32  // open reservations
	pmActiveSec   []float64
	pmOverloadSec []float64
	pmEnergyJ     []float64
	// pmVMs holds each PM's hosted VM ids in ascending order. The initial
	// per-PM capacity is carved from one shared arena sized for the mean
	// occupancy (full slice expressions cap each window, so a PM that
	// outgrows its window reallocates individually without touching its
	// neighbours). Sorted maintenance keeps AppendVMIDs a straight copy and
	// makes every demand fold run in ascending VM-ID order.
	pmVMs [][]int32

	// reservations holds capacity set aside for in-flight migrations,
	// keyed by (PM, offer token); pmResSum/pmResCount cache the per-PM
	// aggregates (see reserve.go).
	reservations map[resKey]Vec

	workload *trace.Set
	// ahead is the look-ahead buffer: every VM's sample at round aheadRound,
	// filled by Prefetch and read through sample (aheadRound -1: empty).
	ahead      []trace.Sample
	aheadRound int
	round      int
	migBW      func(src, dst int) float64
	placeIntn  func(n int) int

	// RoundSeconds is the wall-clock length of one round (the paper: 120 s).
	RoundSeconds float64

	// Migrations is the cumulative migration count.
	Migrations int64
	// FailedPlacements counts arrival rounds in which an arriving VM could
	// not be placed (no powered PM); each failed attempt counts once, so the
	// value also reflects how long arrivals waited.
	FailedPlacements int64
	// MigrationEnergyJ is the cumulative migration energy overhead (Eq. 3).
	MigrationEnergyJ float64
	migrationLog     []Migration
	logMigrations    bool
}

// pmOn reads the powered bit of PM p.
func (c *Cluster) pmOn(p int) bool {
	return c.pmUp[uint(p)>>6]&(1<<(uint(p)&63)) != 0
}

func (c *Cluster) setPMUp(p int, on bool) {
	if on {
		c.pmUp[uint(p)>>6] |= 1 << (uint(p) & 63)
	} else {
		c.pmUp[uint(p)>>6] &^= 1 << (uint(p) & 63)
	}
}

// hostedInsert adds VM id to PM p's sorted hosted list.
func (c *Cluster) hostedInsert(p int, id int32) {
	list := c.pmVMs[p]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= id })
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = id
	c.pmVMs[p] = list
}

// hostedRemove drops VM id from PM p's sorted hosted list.
func (c *Cluster) hostedRemove(p int, id int32) {
	list := c.pmVMs[p]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= id })
	if i < len(list) && list[i] == id {
		copy(list[i:], list[i+1:])
		c.pmVMs[p] = list[:len(list)-1]
	}
}

// Config assembles a Cluster.
type Config struct {
	// PMs is the number of physical machines.
	PMs int
	// PMSpec and VMSpec select hardware models; zero values default to the
	// paper's HP ProLiant ML110 G5 and EC2 micro.
	PMSpec PMSpec
	VMSpec VMSpec
	// PMSpecFor, when set, assigns a per-machine hardware model
	// (heterogeneous clusters); it overrides PMSpec.
	PMSpecFor func(pm int) PMSpec
	// Workload drives per-VM demand; it also fixes the number of VMs.
	Workload *trace.Set
	// RoundSeconds defaults to 120.
	RoundSeconds float64
	// LogMigrations keeps a per-migration record (needed only by the
	// energy-breakdown example; the counters are always maintained).
	LogMigrations bool
	// MigrationBandwidth, when set, overrides the bandwidth (MB/s)
	// available to a live migration between two PMs — the hook through
	// which the network topology model imposes oversubscription penalties
	// on cross-rack and cross-pod transfers.
	MigrationBandwidth func(src, dst int) float64
}

// New builds a cluster with all PMs on and no VMs placed. Call a placement
// routine (e.g. PlaceRandom) before running rounds.
func New(cfg Config) (*Cluster, error) {
	if cfg.PMs <= 0 {
		return nil, fmt.Errorf("dc: PMs must be positive, got %d", cfg.PMs)
	}
	if cfg.Workload == nil || cfg.Workload.NumVMs() == 0 {
		return nil, fmt.Errorf("dc: workload with at least one VM required")
	}
	if cfg.PMSpec.Capacity == (Vec{}) {
		cfg.PMSpec = HPProLiantML110G5
	}
	if cfg.VMSpec.Capacity == (Vec{}) {
		cfg.VMSpec = EC2Micro
	}
	if cfg.RoundSeconds == 0 {
		cfg.RoundSeconds = 120
	}
	numVMs := cfg.Workload.NumVMs()
	c := &Cluster{
		workload:      cfg.Workload,
		aheadRound:    -1,
		RoundSeconds:  cfg.RoundSeconds,
		logMigrations: cfg.LogMigrations,
		migBW:         cfg.MigrationBandwidth,

		vmHost:      make([]int32, numVMs),
		vmCur:       make([]Vec, numVMs),
		vmAvg:       make([]Vec, numVMs),
		vmCount:     make([]int32, numVMs),
		vmCap:       make([]Vec, numVMs),
		vmMigs:      make([]int32, numVMs),
		vmDegraded:  make([]float64, numVMs),
		vmRequested: make([]float64, numVMs),
		vmArrive:    make([]int32, numVMs),
		vmDepart:    make([]int32, numVMs),
		vmFlags:     make([]uint8, numVMs),

		pmUp:          make([]uint64, (cfg.PMs+63)/64),
		pmCurSum:      make([]Vec, cfg.PMs),
		pmAvgSum:      make([]Vec, cfg.PMs),
		pmAllocSum:    make([]Vec, cfg.PMs),
		pmResSum:      make([]Vec, cfg.PMs),
		pmResCount:    make([]int32, cfg.PMs),
		pmActiveSec:   make([]float64, cfg.PMs),
		pmOverloadSec: make([]float64, cfg.PMs),
		pmEnergyJ:     make([]float64, cfg.PMs),
		pmVMs:         make([][]int32, cfg.PMs),
	}

	// Hosted-list arena: one window per PM sized for mean occupancy plus
	// slack. Consolidation skews occupancy, so windows are a starting
	// point, not a bound — append past a window's cap spills that PM onto
	// its own allocation.
	perPM := numVMs/cfg.PMs + 2
	arena := make([]int32, cfg.PMs*perPM)
	for i := range c.pmVMs {
		c.pmVMs[i] = arena[i*perPM : i*perPM : (i+1)*perPM]
	}

	pmBack := make([]PM, cfg.PMs)
	c.PMs = make([]*PM, cfg.PMs)
	for i := range c.PMs {
		spec := cfg.PMSpec
		if cfg.PMSpecFor != nil {
			spec = cfg.PMSpecFor(i)
		}
		pmBack[i] = PM{ID: i, Spec: spec, c: c}
		c.PMs[i] = &pmBack[i]
		c.setPMUp(i, true)
	}

	vmBack := make([]VM, numVMs)
	c.VMs = make([]*VM, numVMs)
	for i := range c.VMs {
		vmBack[i] = VM{ID: i, Spec: cfg.VMSpec, c: c}
		c.VMs[i] = &vmBack[i]
		c.vmHost[i] = -1
		c.vmDepart[i] = -1
		c.vmCap[i] = cfg.VMSpec.Capacity
		// Seed demand from round 0 so states are meaningful before the
		// first AdvanceRound.
		s := cfg.Workload.At(i, 0)
		c.vmCur[i] = Vec{s.CPU, s.Mem}
		c.vmAvg[i] = c.vmCur[i]
		c.vmCount[i] = 1
	}
	return c, nil
}

// Round returns the index of the last advanced round.
func (c *Cluster) Round() int { return c.round }

// Workload returns the driving trace set.
func (c *Cluster) Workload() *trace.Set { return c.workload }

// MigrationLog returns the per-migration records (only populated when
// Config.LogMigrations was set).
func (c *Cluster) MigrationLog() []Migration { return c.migrationLog }

// PlaceRandom distributes all unplaced VMs uniformly at random over powered
// PMs using the provided index picker (intn(n) must return a uniform value
// in [0, n)). Initial allocation is by VM type — full nominal size — as in
// Section V-A, so the placement may not respect *current* demand headroom
// but always respects allocated capacity where possible; when the cluster is
// oversubscribed (ratio > capacity), remaining VMs are placed round-robin.
func (c *Cluster) PlaceRandom(intn func(n int) int) {
	c.placeIntn = intn
	for _, vm := range c.VMs {
		if c.vmHost[vm.ID] >= 0 || c.vmArrive[vm.ID] > 0 {
			continue
		}
		placed := false
		for attempt := 0; attempt < 3*len(c.PMs); attempt++ {
			p := intn(len(c.PMs))
			pm := c.PMs[p]
			if !c.pmOn(p) {
				continue
			}
			if c.pmAllocSum[p].Add(vm.Spec.Capacity).FitsWithin(pm.Spec.Capacity) {
				c.attach(vm, pm)
				placed = true
				break
			}
		}
		if !placed {
			// First-fit scan before giving up on the allocation bound.
			start := intn(len(c.PMs))
			for off := 0; off < len(c.PMs); off++ {
				p := (start + off) % len(c.PMs)
				pm := c.PMs[p]
				if !c.pmOn(p) {
					continue
				}
				if c.pmAllocSum[p].Add(vm.Spec.Capacity).FitsWithin(pm.Spec.Capacity) {
					c.attach(vm, pm)
					placed = true
					break
				}
			}
		}
		if !placed {
			// The cluster is genuinely over-subscribed by allocation;
			// stuff the VM anyway so every VM runs somewhere.
			c.attach(vm, c.PMs[vm.ID%len(c.PMs)])
		}
	}
}

func (c *Cluster) attach(vm *VM, pm *PM) {
	c.hostedInsert(pm.ID, int32(vm.ID))
	c.vmHost[vm.ID] = int32(pm.ID)
	c.vmFlags[vm.ID] &^= vmFlagPending
	c.pmCurSum[pm.ID] = c.pmCurSum[pm.ID].Add(vm.CurAbs())
	c.pmAvgSum[pm.ID] = c.pmAvgSum[pm.ID].Add(vm.AvgAbs())
	c.pmAllocSum[pm.ID] = c.pmAllocSum[pm.ID].Add(c.vmCap[vm.ID])
}

func (c *Cluster) detach(vm *VM, pm *PM) {
	c.hostedRemove(pm.ID, int32(vm.ID))
	c.pmCurSum[pm.ID] = c.pmCurSum[pm.ID].Sub(vm.CurAbs())
	c.pmAvgSum[pm.ID] = c.pmAvgSum[pm.ID].Sub(vm.AvgAbs())
	c.pmAllocSum[pm.ID] = c.pmAllocSum[pm.ID].Sub(c.vmCap[vm.ID])
	if len(c.pmVMs[pm.ID]) == 0 {
		// Reset exactly at empty so float cancellation cannot accumulate
		// across attach/detach cycles of a long churny run.
		c.pmAllocSum[pm.ID] = Vec{}
	}
}

// CurUtil returns the PM's current utilisation fraction per resource:
// aggregate current absolute VM demand divided by capacity. Values may
// exceed 1 when demand outstrips capacity; the PM is then overloaded and the
// excess manifests as SLA violation.
func (c *Cluster) CurUtil(pm *PM) Vec {
	return c.pmCurSum[pm.ID].Div(pm.Spec.Capacity)
}

// AvgUtil returns the PM's utilisation per resource computed from the VMs'
// running average demand (the paper's pre-action PM state).
func (c *Cluster) AvgUtil(pm *PM) Vec {
	return c.pmAvgSum[pm.ID].Div(pm.Spec.Capacity)
}

// Overloaded reports whether the PM's current demand saturates at least one
// resource (utilisation >= 1 on any axis).
func (c *Cluster) Overloaded(pm *PM) bool {
	u := c.CurUtil(pm)
	for _, x := range u {
		if x >= 1 {
			return true
		}
	}
	return false
}

// FreeCur returns the remaining absolute capacity under current demand,
// clamped at zero.
func (c *Cluster) FreeCur(pm *PM) Vec {
	u := c.CurUtil(pm)
	var free Vec
	for r := 0; r < NumResources; r++ {
		f := (1 - u[r]) * pm.Spec.Capacity[r]
		if f < 0 {
			f = 0
		}
		free[r] = f
	}
	return free
}

// FitsCur reports whether vm's current absolute demand fits in pm's free
// capacity under current demand — the capacity check of Algorithm 3.
func (c *Cluster) FitsCur(vm *VM, pm *PM) bool {
	return vm.CurAbs().FitsWithin(c.FreeCur(pm))
}

// SetPMOn powers the PM on or off. Switching off a PM that still hosts VMs
// or holds open reservations is rejected: consolidation protocols must empty
// a machine first, and a machine expecting an in-flight VM must stay up to
// receive it.
func (c *Cluster) SetPMOn(pm *PM, on bool) error {
	if !on && len(c.pmVMs[pm.ID]) > 0 {
		return fmt.Errorf("dc: cannot switch off PM %d: hosts %d VMs", pm.ID, len(c.pmVMs[pm.ID]))
	}
	if !on && c.pmResCount[pm.ID] > 0 {
		return fmt.Errorf("dc: cannot switch off PM %d: %d open reservations", pm.ID, c.pmResCount[pm.ID])
	}
	c.setPMUp(pm.ID, on)
	return nil
}

// Migrate live-migrates vm from its current host to dst, updating counters
// and the energy ledger (Eq. 3). It returns an error when dst is off, vm is
// unplaced, or src == dst. Capacity is deliberately not re-checked here:
// admission is the protocol's decision (Algorithm 3 performs the check), and
// over-admission must be expressible so that bad policies produce the SLA
// violations the paper measures.
func (c *Cluster) Migrate(vm *VM, dst *PM) error {
	host := c.vmHost[vm.ID]
	if host < 0 {
		return fmt.Errorf("dc: VM %d is not placed", vm.ID)
	}
	if !c.pmOn(dst.ID) {
		return fmt.Errorf("dc: destination PM %d is off", dst.ID)
	}
	src := c.PMs[host]
	if src.ID == dst.ID {
		return fmt.Errorf("dc: VM %d already on PM %d", vm.ID, dst.ID)
	}
	c.detach(vm, src)
	c.attach(vm, dst)
	c.vmMigs[vm.ID]++

	// Migration time: VM memory footprint over available bandwidth. The
	// footprint is the VM's current memory demand (post-copy of the working
	// set), bounded below by a small constant so empty VMs still cost.
	memMB := c.vmCur[vm.ID][Mem] * c.vmCap[vm.ID][Mem]
	if memMB < 1 {
		memMB = 1
	}
	bw := src.Spec.NetBandwidthMBps
	if dst.Spec.NetBandwidthMBps < bw {
		bw = dst.Spec.NetBandwidthMBps
	}
	if c.migBW != nil {
		if custom := c.migBW(src.ID, dst.ID); custom > 0 {
			bw = custom
		}
	}
	tau := memMB / bw

	// Eq. 3: E = ((P_i^lm - P_i^idle) + (P_j^lm - P_j^idle)) * tau, with
	// P^lm - P^idle modelled as the dynamic power of the migration's CPU
	// overhead on each endpoint.
	eSrc := (src.Spec.PowerMaxW - src.Spec.PowerIdleW) * src.Spec.MigrationCPUOverhead
	eDst := (dst.Spec.PowerMaxW - dst.Spec.PowerIdleW) * dst.Spec.MigrationCPUOverhead
	energy := (eSrc + eDst) * tau

	// SLALM: performance degradation estimated as 10% of the VM's CPU
	// utilisation during the migration.
	c.vmDegraded[vm.ID] += 0.10 * c.vmCur[vm.ID][CPU] * c.vmCap[vm.ID][CPU] * tau

	c.Migrations++
	c.MigrationEnergyJ += energy
	if c.logMigrations {
		c.migrationLog = append(c.migrationLog, Migration{
			VM: vm.ID, From: src.ID, To: dst.ID, Round: c.round,
			Seconds: tau, EnergyJ: energy,
		})
	}
	return nil
}

// Prefetch synthesises every VM's sample at round r into the look-ahead
// buffer, from which AdvanceRound(r) will take it. A sample is a pure function
// of (workload, VM, round) — demand is replayed, never a consequence of
// placement — so this may run any time after AdvanceRound(r-1) has returned,
// in particular on another goroutine while round r-1's protocols move VMs
// about: it reads and advances only the workload's per-VM streams and writes
// only the buffer, and nothing else touches either until the caller has
// joined it. Every VM is fetched, placed or not: whether a VM is placed is
// state a round writes, and a stream tolerates being advanced past rounds
// nobody asks for. Not calling it changes nothing but who pays for the
// synthesis.
func (c *Cluster) Prefetch(r int) {
	if c.ahead == nil {
		c.ahead = make([]trace.Sample, len(c.VMs))
	}
	c.aheadRound = -1 // the tag never names a half-filled buffer
	for id := range c.ahead {
		c.ahead[id] = c.workload.At(id, r)
	}
	c.aheadRound = r
}

// sample is VM id's demand at round r: the look-ahead buffer's when it holds
// round r, synthesised on the spot otherwise.
func (c *Cluster) sample(id, r int) trace.Sample {
	if c.aheadRound == r {
		return c.ahead[id]
	}
	return c.workload.At(id, r)
}

// AdvanceRound moves the cluster to round r: every VM's current demand is
// refreshed from the workload — taken from the look-ahead buffer when
// Prefetch(r) filled it, synthesised on the spot otherwise, the same sample
// either way — and folded into its running average, the PMs' demand sums are
// rebuilt, and PM time/energy accounting advances by one round.
func (c *Cluster) AdvanceRound(r int) {
	c.round = r
	c.stepLifecycle(r)
	for id := range c.VMs {
		if c.vmHost[id] < 0 {
			continue
		}
		s := c.sample(id, r)
		cur := Vec{s.CPU, s.Mem}
		c.vmCur[id] = cur
		// Running average: ((c*v) + d(t)) / (c+1), per resource.
		n := float64(c.vmCount[id])
		avg := c.vmAvg[id]
		for res := 0; res < NumResources; res++ {
			avg[res] = (n*avg[res] + cur[res]) / (n + 1)
		}
		c.vmAvg[id] = avg
		c.vmCount[id]++
		c.vmRequested[id] += cur[CPU] * c.vmCap[id][CPU] * c.RoundSeconds
	}
	// Rebuild the cached demand sums afresh — demand changed for every
	// VM, and a fresh summation accumulates no float drift — by scattering
	// each hosted VM's absolute demand into its host: unit-stride loads, where
	// gathering each PM's VMs was a scattered load per VM. The sweep runs in
	// ascending VM-ID order, so each PM's sums add its VMs from +0 in
	// ascending-ID order: the order of a fold over its sorted hosted list, and
	// the same bits. The order is fixed because float addition is
	// order-sensitive; the explicit float64 conversions round each product
	// before its add, so a target that fuses multiply-add cannot change the
	// bits either.
	clear(c.pmCurSum)
	clear(c.pmAvgSum)
	for id, h := range c.vmHost {
		if h < 0 {
			continue
		}
		cur, avg, cp := c.vmCur[id], c.vmAvg[id], c.vmCap[id]
		curSum, avgSum := &c.pmCurSum[h], &c.pmAvgSum[h]
		curSum[CPU] += float64(cur[CPU] * cp[CPU])
		curSum[Mem] += float64(cur[Mem] * cp[Mem])
		avgSum[CPU] += float64(avg[CPU] * cp[CPU])
		avgSum[Mem] += float64(avg[Mem] * cp[Mem])
	}
	for p, pm := range c.PMs {
		if !c.pmOn(p) {
			continue
		}
		c.pmActiveSec[p] += c.RoundSeconds
		cpuU := c.pmCurSum[p].Div(pm.Spec.Capacity)[CPU]
		if cpuU >= 1 {
			c.pmOverloadSec[p] += c.RoundSeconds
			cpuU = 1
		}
		c.pmEnergyJ[p] += (pm.Spec.PowerIdleW + (pm.Spec.PowerMaxW-pm.Spec.PowerIdleW)*cpuU) * c.RoundSeconds
	}
}

// ActivePMs returns the number of powered PMs: the population count of the
// powered-state bitset, whose bits past the last PM are never set.
func (c *Cluster) ActivePMs() int {
	n := 0
	for _, w := range c.pmUp {
		n += bits.OnesCount64(w)
	}
	return n
}

// OverloadedPMs returns the number of powered PMs whose current demand
// saturates at least one resource. A plain scan: a fork-join over it did not
// pay at any cluster size measured (120 to 5000 PMs).
func (c *Cluster) OverloadedPMs() int {
	n := 0
	for p, pm := range c.PMs {
		if c.pmOn(p) && c.Overloaded(pm) {
			n++
		}
	}
	return n
}

// CheckInvariants verifies structural consistency (every VM on exactly one
// powered PM that also lists it, sorted hosted lists, reservation caches in
// sync). It is used by tests and the benchmark's per-run checks, never on a
// timed path, and returns the first violation of one sequential pass: the
// hosted-list checks in PM order, then the VM hosting counts in VM order,
// then the reservation caches in PM order.
func (c *Cluster) CheckInvariants() error {
	seen := make([]int, len(c.VMs))
	for p := range c.PMs {
		prev := int32(-1)
		var alloc Vec
		for _, id := range c.pmVMs[p] {
			if id <= prev {
				return fmt.Errorf("dc: PM %d hosted list not sorted at id %d", p, id)
			}
			prev = id
			if int(id) >= len(c.VMs) {
				return fmt.Errorf("dc: PM %d lists unknown VM %d", p, id)
			}
			if c.vmHost[id] != int32(p) {
				return fmt.Errorf("dc: VM %d hosted by PM %d but Host=%d", id, p, c.vmHost[id])
			}
			if !c.pmOn(p) {
				return fmt.Errorf("dc: powered-off PM %d hosts VM %d", p, id)
			}
			alloc = alloc.Add(c.vmCap[id])
			seen[id]++
		}
		for r := 0; r < NumResources; r++ {
			diff := alloc[r] - c.pmAllocSum[p][r]
			if diff < -1e-6 || diff > 1e-6 {
				return fmt.Errorf("dc: PM %d allocSum drifted: cached %v, actual %v", p, c.pmAllocSum[p], alloc)
			}
		}
	}
	for id, n := range seen {
		if c.vmHost[id] >= 0 && n != 1 {
			return fmt.Errorf("dc: VM %d appears on %d PMs", id, n)
		}
	}
	// Reservation caches: fold the cluster-level map into per-PM sums once,
	// then compare against the cached aggregates.
	actualSum := make(map[int32]Vec)
	actualCount := make(map[int32]int32)
	for k, d := range c.reservations {
		actualSum[k.pm] = actualSum[k.pm].Add(d)
		actualCount[k.pm]++
	}
	for p := range c.PMs {
		if actualCount[int32(p)] != c.pmResCount[p] {
			return fmt.Errorf("dc: PM %d reservation count drifted: cached %d, actual %d", p, c.pmResCount[p], actualCount[int32(p)])
		}
		sum := actualSum[int32(p)]
		for r := 0; r < NumResources; r++ {
			diff := sum[r] - c.pmResSum[p][r]
			if diff < -1e-6 || diff > 1e-6 {
				return fmt.Errorf("dc: PM %d reservedSum drifted: cached %v, actual %v", p, c.pmResSum[p], sum)
			}
		}
		if !c.pmOn(p) && c.pmResCount[p] > 0 {
			return fmt.Errorf("dc: powered-off PM %d holds %d reservations", p, c.pmResCount[p])
		}
	}
	return nil
}
