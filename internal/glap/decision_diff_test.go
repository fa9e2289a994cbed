package glap

import (
	"fmt"
	"testing"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap/decision"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
)

// This file is the differential property test of the decision/transport
// split: the pure decision core, the cycle-driven ConsolidateProtocol, and
// the message-passing AsyncConsolidateProtocol at zero loss and latency must
// produce identical offer/accept decisions. It extends the run-level
// equivalence pin of asyncconsolidate_test.go down to the function level:
// each core function is checked against an independently written oracle over
// randomized inputs, and each protocol's lowering of live cluster state into
// the core is checked against the other's.

// oracleDirection is Algorithm 3's direction rule transcribed directly from
// the paper's pseudocode, structured differently from decision.Direction on
// purpose.
func oracleDirection(self, peer decision.View) decision.Mode {
	switch {
	case self.Overloaded:
		return decision.ModeShed
	case peer.Overloaded:
		return decision.ModeNone
	case self.Util > peer.Util:
		return decision.ModeNone
	case self.Util == peer.Util && self.ID >= peer.ID:
		return decision.ModeNone
	default:
		return decision.ModeEmpty
	}
}

// TestDirectionMatchesOracle drives the shared direction rule against the
// independent transcription over randomized views, including forced
// equal-utilisation pairs so the ID tie-break is exercised.
func TestDirectionMatchesOracle(t *testing.T) {
	rng := sim.NewRNG(101)
	view := func(id int) decision.View {
		return decision.View{
			ID:         id,
			Overloaded: rng.Intn(4) == 0,
			Util:       float64(rng.Intn(8)) / 8, // coarse grid → frequent ties
		}
	}
	for i := 0; i < 2000; i++ {
		self, peer := view(rng.Intn(50)), view(rng.Intn(50))
		if i%5 == 0 {
			peer.Util = self.Util // force the tie-break path
		}
		want, got := oracleDirection(self, peer), decision.Direction(self, peer)
		if got != want {
			t.Fatalf("Direction(%+v, %+v) = %v, oracle says %v", self, peer, got, want)
		}
		// Exactly one endpoint of a non-overloaded pair may empty itself.
		if !self.Overloaded && !peer.Overloaded && self.ID != peer.ID {
			a := decision.Direction(self, peer)
			b := decision.Direction(peer, self)
			if a == decision.ModeEmpty && b == decision.ModeEmpty {
				t.Fatalf("both endpoints of (%+v, %+v) elected to empty", self, peer)
			}
		}
	}
}

// randomTable fills a fresh Q-table with random values over the calibrated
// state/action space, leaving a fraction of cells unwritten.
func randomTable(rng *sim.RNG, states, actions int, holeEvery int) *qlearn.Table {
	tbl := qlearn.New(0.5, 0.5)
	i := 0
	for s := 0; s < states; s++ {
		for a := 0; a < actions; a++ {
			i++
			if holeEvery > 0 && i%holeEvery == 0 {
				continue
			}
			tbl.Set(qlearn.State(s), qlearn.Action(a), rng.Float64()*2-1)
		}
	}
	return tbl
}

// selectOfferBuckets is π_out as it was written before the single-pass
// rewrite — a map of per-action VM buckets in first-seen order, Table.Best
// over the bucket keys, then the cheapest VM of the winning bucket — retired
// from the production path and kept here as the differential oracle.
func selectOfferBuckets(out *qlearn.Table, sender qlearn.State, vms []*dc.VM, action func(*dc.VM) qlearn.Action) (decision.Offer, bool) {
	if len(vms) == 0 {
		return decision.Offer{}, false
	}
	byAction := make(map[qlearn.Action][]*dc.VM)
	actions := make([]qlearn.Action, 0, 4)
	for _, vm := range vms {
		a := action(vm)
		if _, seen := byAction[a]; !seen {
			actions = append(actions, a)
		}
		byAction[a] = append(byAction[a], vm)
	}
	a, _, ok := out.Best(sender, actions)
	if !ok {
		return decision.Offer{}, false
	}
	var best *dc.VM
	for _, vm := range byAction[a] {
		if best == nil || vm.CurAbs()[dc.Mem] < best.CurAbs()[dc.Mem] {
			best = vm
		}
	}
	return decision.Offer{VM: best, Action: a}, true
}

// bruteForceOffer re-derives π_out's argmax and tie-breaks from first
// principles: actions in first-seen order, highest Q wins with the
// first-listed action on ties, and the smallest current memory footprint
// wins among the VMs of the chosen action (first-seen on ties).
func bruteForceOffer(out *qlearn.Table, sender qlearn.State, vms []*dc.VM, action func(*dc.VM) qlearn.Action) (decision.Offer, bool) {
	var actions []qlearn.Action
	seen := map[qlearn.Action]bool{}
	for _, vm := range vms {
		if a := action(vm); !seen[a] {
			seen[a] = true
			actions = append(actions, a)
		}
	}
	if len(actions) == 0 {
		return decision.Offer{}, false
	}
	best := actions[0]
	for _, a := range actions[1:] {
		if out.Get(sender, a) > out.Get(sender, best) {
			best = a
		}
	}
	off := decision.Offer{Action: best}
	for _, vm := range vms {
		if action(vm) != best {
			continue
		}
		if off.VM == nil || vm.CurAbs()[dc.Mem] < off.VM.CurAbs()[dc.Mem] {
			off.VM = vm
		}
	}
	return off, true
}

// checkSelectOffer requires decision.SelectOffer, the retired bucket
// implementation and the brute-force oracle to agree on one input.
func checkSelectOffer(t *testing.T, label string, out *qlearn.Table, sender qlearn.State, vms []*dc.VM, action func(*dc.VM) qlearn.Action) decision.Offer {
	t.Helper()
	got, ok := decision.SelectOffer(out, sender, vms, action)
	for name, oracle := range map[string]func(*qlearn.Table, qlearn.State, []*dc.VM, func(*dc.VM) qlearn.Action) (decision.Offer, bool){
		"bucket": selectOfferBuckets, "brute-force": bruteForceOffer,
	} {
		want, wantOK := oracle(out, sender, vms, action)
		if ok != wantOK {
			t.Fatalf("%s: SelectOffer ok=%v, %s oracle ok=%v", label, ok, name, wantOK)
		}
		if got != want {
			t.Fatalf("%s: SelectOffer picked vm=%d action=%d, %s oracle vm=%d action=%d",
				label, got.VM.ID, got.Action, name, want.VM.ID, want.Action)
		}
	}
	return got
}

// TestSelectOfferMatchesBruteForce runs π_out against the retired bucket
// implementation and the brute-force oracle: over real clusters and random
// Q-tables PM by PM, then over VM lists wider than SelectOffer's stack
// scratch (more than 64 VMs, more than 16 distinct actions) with exact ties
// forced in both memory footprint and Q-value, and finally pins when ok is
// false.
func TestSelectOfferMatchesBruteForce(t *testing.T) {
	cl := genCluster(t, 12, 40, 30, 7)
	rng := sim.NewRNG(19)
	action := func(vm *dc.VM) qlearn.Action { return DecisionVMAction(vm, false) }
	for round := 0; round < 25; round++ {
		cl.AdvanceRound(round)
		out := randomTable(rng, 81, 81, 7)
		for _, pm := range cl.PMs {
			checkSelectOffer(t, fmt.Sprintf("round %d pm %d", round, pm.ID), out, PMStateAvg(cl, pm), vmsOn(cl, pm), action)
		}
	}

	// Wide lists: π_out is a pure function of the list, so every VM of a
	// 200-VM cluster stands in for one crowded PM.
	wide := genCluster(t, 40, 200, 30, 11)
	actions := map[string]func(*dc.VM) qlearn.Action{
		"calibrated": action,
		"3 actions":  func(vm *dc.VM) qlearn.Action { return qlearn.Action(vm.ID % 3) },
		"40 actions": func(vm *dc.VM) qlearn.Action { return qlearn.Action(vm.ID * 7 % 40) },
	}
	for round := 0; round < 10; round++ {
		wide.AdvanceRound(round)
		// Exact memory ties: a third of the VMs share a zero footprint and
		// another third one common positive footprint.
		for _, vm := range wide.VMs {
			d := vm.CurDemand()
			switch rng.Intn(3) {
			case 0:
				d[dc.Mem] = 0
			case 1:
				d[dc.Mem] = 0.25 * 613 / vm.Spec.Capacity[dc.Mem]
			}
			vm.SetCurDemand(d)
		}
		// Exact Q ties: values on a three-point grid, every seventh cell
		// unwritten (read as 0, itself a grid point).
		out := qlearn.New(0.5, 0.5)
		for s := 0; s < 81; s++ {
			for a := 0; a < 81; a++ {
				if (s*81+a)%7 != 0 {
					out.Set(qlearn.State(s), qlearn.Action(a), float64(rng.Intn(3)-1)/2)
				}
			}
		}
		for name, act := range actions {
			for _, n := range []int{1, 17, 64, 65, 130, len(wide.VMs)} {
				from := rng.Intn(len(wide.VMs) - n + 1)
				sender := qlearn.State(rng.Intn(81))
				checkSelectOffer(t, fmt.Sprintf("round %d %s n=%d", round, name, n), out, sender, wide.VMs[from:from+n], act)
			}
		}
	}

	// ok is false only for an empty VM list: Table.Best reads unwritten
	// cells as 0, so a table that knows none of the candidate actions still
	// yields an offer — the first-seen action and its cheapest VM.
	empty := qlearn.New(0.5, 0.5)
	if _, ok := decision.SelectOffer(empty, 0, nil, action); ok {
		t.Fatal("SelectOffer over no VMs reported ok")
	}
	vms := wide.VMs[:5]
	got := checkSelectOffer(t, "empty table", empty, 0, vms, action)
	if got.VM == nil || got.Action != action(vms[0]) {
		t.Fatalf("empty table: offer %+v, want the first VM's action %d", got, action(vms[0]))
	}
}

// vmsOn collects pm's VMs in ascending ID order without going through the
// cluster's per-PM lists, mirroring dc.PM.AppendVMs' contract independently.
func vmsOn(c *dc.Cluster, pm *dc.PM) []*dc.VM {
	var vms []*dc.VM
	for _, vm := range c.VMs {
		if vm.Host() == pm.ID {
			vms = append(vms, vm)
		}
	}
	return vms
}

// TestVetOfferMatchesOracle pins π_in plus the capacity check against its
// two-clause definition over randomized tables, demands, and free vectors —
// including zero free capacity and sign-boundary Q-values.
func TestVetOfferMatchesOracle(t *testing.T) {
	rng := sim.NewRNG(23)
	in := randomTable(rng, 81, 81, 5)
	in.Set(3, 4, 0) // exact zero: π_in accepts (>= 0)
	for i := 0; i < 4000; i++ {
		s := qlearn.State(rng.Intn(90)) // occasionally out of table range
		a := qlearn.Action(rng.Intn(90))
		demand := dc.Vec{rng.Float64() * 1000, rng.Float64() * 1000}
		free := dc.Vec{rng.Float64() * 1000, rng.Float64() * 1000}
		if i%7 == 0 {
			free = dc.Vec{} // zero headroom
		}
		if i%11 == 0 {
			demand = free // exact fit boundary
		}
		want := in.Get(s, a) >= 0 && demand.FitsWithin(free)
		if got := decision.VetOffer(in, s, a, demand, free); got != want {
			t.Fatalf("VetOffer(s=%d a=%d demand=%v free=%v) = %v, oracle %v (q=%g)",
				s, a, demand, free, got, want, in.Get(s, a))
		}
	}
}

// TestAsyncSnapshotMatchesLiveDecisions is the zero-latency function-level
// pin: the async protocol decides from loadState snapshots that travelled
// over the wire, the sync protocol from the live cluster. With no latency
// the snapshot is exactly as fresh as the live view, so for every PM pair
// the direction, the decision states, and the sender-side offer vet must
// coincide between the two lowerings.
func TestAsyncSnapshotMatchesLiveDecisions(t *testing.T) {
	const pms, vms, wlRounds = 16, 48, 40
	shared := pretrainShared(t, pms, vms, wlRounds, 53)
	cl := genCluster(t, pms, vms, wlRounds, 53)
	e := sim.NewEngine(pms, 54)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	async := &AsyncConsolidateProtocol{B: b}
	for round := 0; round < wlRounds; round++ {
		cl.AdvanceRound(round)
		snaps := make([]loadState, pms)
		for i, pm := range cl.PMs {
			snaps[i] = async.snapshot(pm)
		}
		for _, pm := range cl.PMs {
			// The snapshot's decision state must equal the live lowering in
			// both demand modes.
			if got, want := snaps[pm.ID].state(false), PMStateAvg(cl, pm); got != want {
				t.Fatalf("round %d pm %d: snapshot avg state %v, live %v", round, pm.ID, got, want)
			}
			if got, want := snaps[pm.ID].state(true), PMStateCur(cl, pm); got != want {
				t.Fatalf("round %d pm %d: snapshot cur state %v, live %v", round, pm.ID, got, want)
			}
			for _, o := range cl.PMs {
				if o.ID == pm.ID {
					continue
				}
				// Direction from the remote snapshot ≡ direction from the
				// live peer view.
				snapMode := decision.Direction(pmView(cl, pm), snaps[o.ID].view(o.ID))
				liveMode := decision.Direction(pmView(cl, pm), pmView(cl, o))
				if snapMode != liveMode {
					t.Fatalf("round %d pair (%d,%d): snapshot direction %v, live %v",
						round, pm.ID, o.ID, snapMode, liveMode)
				}
				if snapMode == decision.ModeNone {
					continue
				}
				// Sender-side pre-vet against the snapshot ≡ the synchronous
				// vet against the live target.
				off, ok := decision.SelectOffer(shared.Out, PMStateAvg(cl, pm), vmsOn(cl, pm),
					func(vm *dc.VM) qlearn.Action { return VMAction(vm) })
				if !ok {
					continue
				}
				snapVet := decision.VetOffer(shared.In, snaps[o.ID].state(false), off.Action,
					off.VM.CurAbs(), snaps[o.ID].free())
				liveVet := decision.VetOffer(shared.In, PMStateAvg(cl, o), off.Action,
					off.VM.CurAbs(), cl.FreeCur(o))
				if snapVet != liveVet {
					t.Fatalf("round %d pair (%d,%d): snapshot vet %v, live vet %v for vm %d action %d",
						round, pm.ID, o.ID, snapVet, liveVet, off.VM.ID, off.Action)
				}
			}
		}
	}
}

// TestSyncProtocolMatchesCoreReplay runs ConsolidateProtocol.updateState on
// one cluster and an independent replay — written here directly against the
// decision core and cluster primitives — on an identically seeded twin, for
// a shared pseudo-random pair schedule. Identical final placements, power
// states and migration counts pin that the protocol adds nothing to the
// core's decisions beyond transporting them.
func TestSyncProtocolMatchesCoreReplay(t *testing.T) {
	const pms, vms, wlRounds = 16, 48, 40
	shared := pretrainShared(t, pms, vms, wlRounds, 53)
	build := func() (*dc.Cluster, *sim.Engine, *policy.Binding) {
		cl := genCluster(t, pms, vms, wlRounds, 53)
		e := sim.NewEngine(pms, 54)
		b, err := policy.Bind(e, cl)
		if err != nil {
			t.Fatal(err)
		}
		return cl, e, b
	}
	clA, eA, bA := build()
	clB, _, bB := build()
	proto := &ConsolidateProtocol{
		B:      bA,
		Tables: func(*sim.Engine, *sim.Node) *NodeTables { return shared },
	}

	// replay is Algorithm 3's UPDATESTATE written against the core only.
	replay := func(s, o *dc.PM) {
		if !s.On() || !o.On() {
			return
		}
		step := func() bool {
			off, ok := decision.SelectOffer(shared.Out, PMStateAvg(clB, s), s.AppendVMs(nil),
				func(vm *dc.VM) qlearn.Action { return VMAction(vm) })
			if !ok {
				return false
			}
			if !decision.VetOffer(shared.In, PMStateAvg(clB, o), off.Action, off.VM.CurAbs(), clB.FreeCur(o)) {
				return false
			}
			return clB.Migrate(off.VM, o) == nil
		}
		switch decision.Direction(pmView(clB, s), pmView(clB, o)) {
		case decision.ModeShed:
			for clB.Overloaded(s) && step() {
			}
		case decision.ModeEmpty:
			for s.NumVMs() > 0 && step() {
			}
			_ = bB.TryPowerOffIfEmpty(s.ID)
		}
	}

	rng := sim.NewRNG(77)
	for round := 0; round < wlRounds; round++ {
		clA.AdvanceRound(round)
		clB.AdvanceRound(round)
		for i := 0; i < pms; i++ {
			s, o := rng.Intn(pms), rng.Intn(pms)
			if s == o {
				continue
			}
			proto.updateState(eA, eA.Node(s), clA.PMs[s], clA.PMs[o])
			replay(clB.PMs[s], clB.PMs[o])
			if err := diffClusters(clA, clB); err != nil {
				t.Fatalf("round %d after pair (%d,%d): %v", round, s, o, err)
			}
		}
	}
	if clA.Migrations == 0 {
		t.Fatal("schedule produced no migrations; the equivalence was vacuous")
	}
}

// diffClusters reports the first placement or power divergence between two
// same-shaped clusters.
func diffClusters(a, b *dc.Cluster) error {
	for i := range a.VMs {
		if a.VMs[i].Host() != b.VMs[i].Host() {
			return fmt.Errorf("vm %d on pm %d vs %d", i, a.VMs[i].Host(), b.VMs[i].Host())
		}
	}
	for i := range a.PMs {
		if a.PMs[i].On() != b.PMs[i].On() {
			return fmt.Errorf("pm %d power %v vs %v", i, a.PMs[i].On(), b.PMs[i].On())
		}
	}
	if a.Migrations != b.Migrations {
		return fmt.Errorf("migrations %d vs %d", a.Migrations, b.Migrations)
	}
	return nil
}
